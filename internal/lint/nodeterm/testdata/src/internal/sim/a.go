// Fixture for nodeterm's obs.Wall rule: this package path ends in
// internal/sim, a determinism-critical package, so every reference to
// obs.Wall — the time.Now shim — is banned; event buses here must run on
// the injected obs.Clock (obs.Logical by default).
package sim

import "nuconsensus/internal/obs"

func busDefault(sinks ...obs.Sink) *obs.Bus {
	return obs.NewBus(nil, nil, sinks...) // nil clock means Logical: fine
}

func busLogical(sinks ...obs.Sink) *obs.Bus {
	return obs.NewBus(obs.Logical{}, nil, sinks...)
}

func busWall(sinks ...obs.Sink) *obs.Bus {
	return obs.NewBus(obs.Wall{}, nil, sinks...) // want `obs\.Wall in determinism-critical package`
}

func injectWall(b *obs.Bus) {
	b.SetClock(obs.Wall{}) // want `obs\.Wall in determinism-critical package`
}

func wallAsValue() obs.Clock {
	var c obs.Clock = obs.Wall{} // want `obs\.Wall in determinism-critical package`
	return c
}

func wallConversion() obs.Clock {
	return obs.Wall(struct{}{}) // want `obs\.Wall in determinism-critical package`
}

func wallMethodExpr() int64 {
	now := obs.Wall.Now    // want `obs\.Wall in determinism-critical package`
	return now(obs.Wall{}) // want `obs\.Wall in determinism-critical package`
}

func sanctioned(b *obs.Bus) {
	//lint:allow nodeterm fixture: a benchmark harness may want real stamps
	b.SetClock(obs.Wall{})
}
