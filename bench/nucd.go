package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nuconsensus/internal/obs"
	"nuconsensus/internal/serve"
	"nuconsensus/internal/wire"
)

// nucdFlags is the served cluster's shape; everything else stays at
// cmd/nucd's defaults (flush 2 ms, stabilize 60).
type nucdFlags struct {
	n, batch, pipeline int
}

// child is one running cmd/nucd process and the scratch directory its
// binary, address file, metrics dump and span stream live in.
type child struct {
	dir    string
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
	addrs  []string
	exited chan struct{} // closed once Wait returned
	waitEr error
}

// startNucd builds cmd/nucd from the module in the working directory (the
// repo root, see inRepoRoot) into a fresh directory under the system temp dir, starts it, and returns once the
// listeners' addresses are published and node 0 answered a read. The time
// this takes (nearly all of it the build: start to first reply is ~10 ms) and
// the warm-up second are the served workloads' set-up cost.
func startNucd(f nucdFlags, ops int, traced bool) (*child, error) {
	dir, err := os.MkdirTemp("", "nucbench-")
	if err != nil {
		return nil, err
	}
	c := &child{dir: dir, exited: make(chan struct{})}
	bin := filepath.Join(dir, "nucd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/nucd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("go build ./cmd/nucd: %v\n%s", err, out)
	}
	addrFile := filepath.Join(dir, "addrs")
	args := []string{
		"-n", strconv.Itoa(f.n), "-batch", strconv.Itoa(f.batch), "-pipeline", strconv.Itoa(f.pipeline),
		"-ops", strconv.Itoa(ops), "-addr-file", addrFile, "-metrics", filepath.Join(dir, "metrics.jsonl"),
	}
	if traced {
		args = append(args, "-trace", filepath.Join(dir, "trace.jsonl"))
	}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout, c.cmd.Stderr = &c.stdout, &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start nucd: %w", err)
	}
	syscall.Setpriority(syscall.PRIO_PGRP, c.cmd.Process.Pid, 5)
	go func() {
		c.waitEr = c.cmd.Wait()
		close(c.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			c.addrs = strings.Fields(string(b))
			break
		}
		select {
		case <-c.exited:
			defer c.remove()
			return nil, fmt.Errorf("nucd exited during start-up: %v\n%s", c.waitEr, c.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			c.remove()
			return nil, fmt.Errorf("nucd never published %s", addrFile)
		}
	}
	if err := firstReply(c.addrs[0]); err != nil {
		c.kill()
		c.remove()
		return nil, fmt.Errorf("nucd first reply: %w", err)
	}
	return c, nil
}

// firstReply sends one plain read on a throwaway connection and waits for
// its answer: the cluster is serving.
func firstReply(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WritePayloadFrame(conn, serve.RequestPayload{Client: 1 << 20, Seq: 1 | readSeqBit, Op: serve.OpGet}); err != nil {
		return err
	}
	_, err = wire.ReadPayloadFrame(bufio.NewReader(conn))
	return err
}

// kill stops the child at once and waits until it is gone.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// waitExit waits for nucd to exit on its own (it does once every node
// applied -ops commands and the clients hung up) and kills it after the
// timeout. It reports whether the exit was clean: status 0, which includes
// nucd's own cross-node checksum and command-count agreement.
func (c *child) waitExit(timeout time.Duration) bool {
	select {
	case <-c.exited:
	case <-time.After(timeout):
		c.kill()
		return false
	}
	return c.waitEr == nil
}

// remove deletes the child's scratch directory.
func (c *child) remove() { os.RemoveAll(c.dir) }

// usage is a process's resource use.
type usage struct {
	userS, sysS float64
	peakRSSMB   float64
}

func usageOf(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	// Linux reports ru_maxrss in KiB.
	return usage{userS: tv(ru.Utime), sysS: tv(ru.Stime), peakRSSMB: float64(ru.Maxrss) / 1024}
}

// usage is the exited child's resource use.
func (c *child) usage() usage {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	return usageOf(ru)
}

// selfUsage is this process's resource use so far.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usageOf(&ru)
}

// exitReport is what a cleanly exited nucd printed and dumped.
type exitReport struct {
	steps    float64
	wallS    float64
	slots    float64 // log entries applied at node 0 (value and no-op slots)
	counters map[string]float64
	histSum  map[string]float64
	histN    map[string]float64
}

var (
	doneRE = regexp.MustCompile(`(?m)^done decided=true steps=(\d+) wall=(\S+) `)
	nodeRE = regexp.MustCompile(`(?m)^node=0 applied=(\d+) `)
)

// report parses the done line, node 0's applied count and the metrics
// dump of a cleanly exited child.
func (c *child) report() (*exitReport, error) {
	out := c.stdout.String()
	dm, nm := doneRE.FindStringSubmatch(out), nodeRE.FindStringSubmatch(out)
	if dm == nil || nm == nil {
		return nil, fmt.Errorf("nucd output has no done/node line:\n%s", out)
	}
	r := &exitReport{counters: map[string]float64{}, histSum: map[string]float64{}, histN: map[string]float64{}}
	r.steps, _ = strconv.ParseFloat(dm[1], 64)
	wall, err := time.ParseDuration(dm[2])
	if err != nil {
		return nil, fmt.Errorf("nucd done line: %w", err)
	}
	r.wallS = wall.Seconds()
	r.slots, _ = strconv.ParseFloat(nm[1], 64)
	f, err := os.Open(filepath.Join(c.dir, "metrics.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m struct {
			Name  string  `json:"name"`
			Kind  string  `json:"kind"`
			Value float64 `json:"value"`
			Sum   float64 `json:"sum"`
		}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("metrics dump: %w", err)
		}
		if m.Kind == "histogram" {
			r.histN[m.Name], r.histSum[m.Name] = m.Value, m.Sum
		} else {
			r.counters[m.Name] = m.Value
		}
	}
	return r, sc.Err()
}

// spans reads the traced child's span stream.
func (c *child) spans() ([]obs.SpanEvent, error) {
	f, err := os.Open(filepath.Join(c.dir, "trace.jsonl"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadSpans(f)
}
