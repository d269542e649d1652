// Chrome trace_event export: one lane (tid) per complete request, five
// "X" slices per lane (the telescoping stages), and s/f flow arrows
// stitching consecutive stages so Perfetto draws each request as one
// connected chain. The document goes through obs.ChromeDoc, the writer
// internal/obs's ChromeTrace sink uses too; load the file at
// https://ui.perfetto.dev.
package main

import (
	"fmt"
	"io"
	"sort"

	"nuconsensus/internal/obs"
)

// flowID gives each stage-to-stage arrow of each request lane a distinct
// id: lane index in the high bits, stage index below.
func flowID(lane, stage int) uint64 {
	return uint64(lane)<<8 | uint64(stage)
}

// writeChrome exports the complete requests, lanes ordered by send time
// and timestamps rebased so the earliest send is t=0. If w is a file,
// writeChrome closes it.
func writeChrome(w io.Writer, reqs []*request) error {
	var complete []*request
	for _, r := range reqs {
		if r.complete() {
			complete = append(complete, r)
		}
	}
	sort.Slice(complete, func(a, b int) bool { return complete[a].send.Wall < complete[b].send.Wall })
	base := int64(0)
	if len(complete) > 0 {
		base = complete[0].send.Wall
	}
	ts := func(wall int64) float64 { return float64(wall-base) / 1e3 }

	doc := obs.NewChromeDoc(w)
	for lane, r := range complete {
		tid := lane + 1
		// Stage boundaries in causal order; stage i spans bounds[i]..bounds[i+1].
		bounds := []int64{r.send.Wall, r.ingress.Wall, r.seal.Wall, r.decide.Wall, r.apply.Wall, r.recv.Wall}
		for i, name := range stageNames {
			t0, t1 := bounds[i], bounds[i+1]
			doc.Record(fmt.Sprintf(
				`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"node":%d,"slot":%d,"round":%d,"batch_n":%d}}`,
				name, ts(t0), ts(t1)-ts(t0), tid, r.origin, r.decide.Slot, r.decide.N, r.seal.N))
			if i > 0 {
				// Arrow from the previous stage's end to this stage's start.
				id := flowID(lane, i)
				doc.Record(fmt.Sprintf(`{"name":"req","ph":"s","ts":%.3f,"pid":0,"tid":%d,"id":%d}`, ts(t0), tid, id))
				doc.Record(fmt.Sprintf(`{"name":"req","ph":"f","bp":"e","ts":%.3f,"pid":0,"tid":%d,"id":%d}`, ts(t0), tid, id))
			}
		}
	}
	doc.Record(`{"name":"process_name","ph":"M","pid":0,"args":{"name":"requests"}}`)
	for lane, r := range complete {
		doc.Record(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"c%d#%d"}}`,
			lane+1, r.client, r.seq))
	}
	return doc.Close()
}
