// Fixture for obsclock's scope: this package path ends in internal/check,
// which is nodeterm-exempt, so referencing obs.Wall here is not a
// diagnostic — the analyzer only polices the critical list.
package check

import "nuconsensus/internal/obs"

func wallBusIsFineHere(sinks ...obs.Sink) *obs.Bus {
	b := obs.NewBus(obs.Wall{}, nil, sinks...)
	b.SetClock(obs.Wall{})
	return b
}
