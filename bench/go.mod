module nuconsensus/bench

go 1.22

require nuconsensus v0.0.0

replace nuconsensus => ../
