package objstore

import (
	"testing"
	"time"

	"aurora/internal/storage"
)

// gateDevice blocks the n-th WriteAt until release is closed,
// signalling reached when it gets there.
type gateDevice struct {
	storage.Device
	n, writes int
	reached   chan struct{}
	release   chan struct{}
}

func (d *gateDevice) WriteAt(p []byte, off int64) (time.Duration, error) {
	if d.writes++; d.writes == d.n {
		close(d.reached)
		<-d.release
	}
	return d.Device.WriteAt(p, off)
}

// TestAuditWaitsForInFlightPut: a put holds a block reference before it
// registers its record. An audit landing in that window must wait for
// the put instead of reporting the reference as a leak ("refcount 1,
// 0 references reachable").
func TestAuditWaitsForInFlightPut(t *testing.T) {
	clock := storage.NewClock()
	// The put's first write lands its page; the second, its metadata.
	dev := &gateDevice{Device: storage.NewMemDevice(storage.ParamsOptaneNVMe, clock),
		n: 2, reached: make(chan struct{}), release: make(chan struct{})}
	s := Create(dev, clock)

	putDone := make(chan error, 1)
	go func() {
		_, err := s.PutRecord(1, 100, 1, 1, true, []byte("meta"), map[int64][]byte{0: page(7)}, nil)
		putDone <- err
	}()
	<-dev.reached
	auditDone := make(chan error, 1)
	go func() { auditDone <- s.AuditReachability() }()
	select {
	case err := <-auditDone:
		t.Fatalf("audit ran while a put was in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(dev.release)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	if err := <-auditDone; err != nil {
		t.Fatalf("audit after the put registered: %v", err)
	}
}
