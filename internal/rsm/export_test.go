package rsm

import "nuconsensus/internal/model"

// Flatten undoes pack for tests that look at what a step sent: every bundle
// becomes one send per item, to the same destination, in bundle order.
// Order across destinations is pack's (each destination at its first send),
// so a test may rely on the order of sends to one peer, never across peers.
func Flatten(sends []model.Send) []model.Send {
	var flat []model.Send
	for _, snd := range sends {
		if b, ok := snd.Payload.(Bundle); ok {
			for _, pl := range b {
				flat = append(flat, model.Send{To: snd.To, Payload: pl})
			}
			continue
		}
		flat = append(flat, snd)
	}
	return flat
}
