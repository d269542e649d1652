package obs

import (
	"errors"
	"fmt"
	"testing"

	"nuconsensus/internal/model"
)

var errFirst, errLater = errors.New("first write error"), errors.New("later write error")

// failAfter accepts n bytes, then fails: the write that crosses n returns
// errFirst, every later one errLater (and is counted).
type failAfter struct {
	n, got, late int
	failed       bool
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.late++
		return 0, errLater
	}
	if w.got+len(p) > w.n {
		k := w.n - w.got
		w.got, w.failed = w.n, true
		return k, errFirst
	}
	w.got += len(p)
	return len(p), nil
}

// TestChromeDocLatchesFirstError: once a write fails, the document writes
// nothing more, and Close — of the bare document and of the ChromeTrace
// sink built on it — returns the first error.
func TestChromeDocLatchesFirstError(t *testing.T) {
	const limit = 5000 // past bufio's first 4 KiB flush, well short of the whole document
	w := &failAfter{n: limit}
	doc := NewChromeDoc(w)
	for i := 0; i < 500; i++ {
		doc.Record(fmt.Sprintf(`{"name":"e","ph":"i","ts":%d,"pid":0,"tid":0}`, i))
	}
	if err := doc.Close(); !errors.Is(err, errFirst) {
		t.Errorf("ChromeDoc.Close = %v, want %v", err, errFirst)
	}
	if w.got != limit || w.late != 0 {
		t.Errorf("writer got %d bytes and %d writes after the failure, want %d and 0", w.got, w.late, limit)
	}

	w = &failAfter{n: limit}
	tr := NewChromeTrace(w)
	for i := 0; i < 500; i++ {
		tr.Emit(Event{Kind: KindStep, T: model.Time(i + 1), P: model.ProcessID(i % 3)})
	}
	if err := tr.Close(); !errors.Is(err, errFirst) {
		t.Errorf("ChromeTrace.Close = %v, want %v", err, errFirst)
	}
	if w.got != limit || w.late != 0 {
		t.Errorf("trace writer got %d bytes and %d writes after the failure, want %d and 0", w.got, w.late, limit)
	}
}
