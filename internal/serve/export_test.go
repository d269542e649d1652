package serve

import "nuconsensus/internal/model"

// LogStateOf returns the rsm log state inside a replica state.
func LogStateOf(s model.State) model.State { return s.(*replicaState).inner }
