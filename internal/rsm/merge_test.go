package rsm_test

import (
	"reflect"
	"testing"

	"nuconsensus/internal/model"
	"nuconsensus/internal/rsm"
)

// TestMergeJoinsItems: the log's Merge is the items of its first operand
// and then those of its second, as one flat Bundle, and it writes into
// neither operand even where a Bundle has room behind its items.
func TestMergeJoinsItems(t *testing.T) {
	var log *rsm.Log
	prgr, cmd, flw := rsm.ProgressPayload{Slot: 1}, rsm.CommandPayload{Cmd: 2}, rsm.FollowPayload{Leader: 0}
	roomy := append(make(rsm.Bundle, 0, 8), cmd, flw)
	for _, tc := range []struct {
		a, b model.Payload
		want rsm.Bundle
	}{
		{prgr, cmd, rsm.Bundle{prgr, cmd}},
		{prgr, roomy, rsm.Bundle{prgr, cmd, flw}},
		{roomy, prgr, rsm.Bundle{cmd, flw, prgr}},
		{roomy, roomy, rsm.Bundle{cmd, flw, cmd, flw}},
	} {
		if got := log.Merge(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Merge(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if behind := roomy[:3][2]; behind != nil {
		t.Errorf("Merge wrote %v behind an operand's items", behind)
	}
}
