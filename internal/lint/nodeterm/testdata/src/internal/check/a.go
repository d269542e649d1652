// Fixture: internal/check is exempt from nodeterm, so nothing here may
// be flagged even though it uses every banned construct.
package check

import (
	"math/rand"
	"os"
	"time"
)

func unflagged() {
	_ = time.Now()
	_ = rand.Intn(3)
	_ = os.Getenv("X")
	go func() {}()
}
