package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Every segment runs in a fresh process. Some state the program keeps
// is process-global (vm object IDs come from one package-level
// counter, and metadata encodes them as varints), so a segment run
// after others in the same process serializes slightly different
// bytes. A fresh process per segment makes every segment of a seed
// replay the same, and keeps one segment's garbage out of the next
// one's heap and GC figures.

// segmentEnv carries a segmentJob to a child process.
const segmentEnv = "PERFBENCH_SEGMENT"

type segmentJob struct {
	Workload string
	Seed     int64
	Scale    int
	Budget   time.Duration
	Traced   bool
}

type segmentOut struct {
	Seg *segment
	Err string
}

// runSegmentProc runs one segment in a child process (this same
// executable) and waits for it. gomaxprocs > 0 pins the child's
// GOMAXPROCS.
func runSegmentProc(job segmentJob, gomaxprocs int) (*segment, error) {
	exe, err := os.Executable()
	if err != nil {
		return &segment{}, err
	}
	spec, _ := json.Marshal(job)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), segmentEnv+"="+string(spec))
	if gomaxprocs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return &segment{}, fmt.Errorf("segment process: %w", err)
	}
	var so segmentOut
	if err := gob.NewDecoder(bytes.NewReader(out)).Decode(&so); err != nil {
		return &segment{}, fmt.Errorf("segment process output: %w", err)
	}
	if so.Seg == nil {
		so.Seg = &segment{}
	}
	if so.Err != "" {
		return so.Seg, fmt.Errorf("%s", so.Err)
	}
	return so.Seg, nil
}

// segmentChild is the child side: it runs the job named in the
// environment and writes the segment to stdout. It reports whether
// this process is a segment child.
func segmentChild() bool {
	v := os.Getenv(segmentEnv)
	if v == "" {
		return false
	}
	var job segmentJob
	var so segmentOut
	if err := json.Unmarshal([]byte(v), &job); err != nil {
		so.Err = err.Error()
	} else if sp, ok := specByName(job.Workload); !ok {
		so.Err = "unknown workload " + job.Workload
	} else {
		seg, err := runSegment(sp, job.Seed, job.Scale, job.Budget, job.Traced)
		so.Seg = seg
		if err != nil {
			so.Err = err.Error()
		}
	}
	if err := gob.NewEncoder(os.Stdout).Encode(so); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench segment:", err)
		os.Exit(1)
	}
	return true
}
