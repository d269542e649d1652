// Fixture: internal/check is exempt from nodeterm, so nothing here may
// be flagged even though it uses every banned construct.
package check

import (
	"math/rand"
	"os"
	"time"

	"nuconsensus/internal/obs"
)

func unflagged(sinks ...obs.Sink) *obs.Bus {
	_ = time.Now()
	_ = rand.Intn(3)
	_ = os.Getenv("X")
	go func() {}()
	b := obs.NewBus(obs.Wall{}, nil, sinks...)
	b.SetClock(obs.Wall{})
	return b
}
