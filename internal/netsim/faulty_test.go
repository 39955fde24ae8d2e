package netsim

import (
	"errors"
	"sync"
	"syscall"
	"testing"
)

// nullTransport records sends and never fails.
type nullTransport struct {
	mu    sync.Mutex
	sends int
	ch    chan []byte
}

func (n *nullTransport) SendBatch(frames [][]byte) (int, error) {
	n.mu.Lock()
	n.sends += len(frames)
	n.mu.Unlock()
	return len(frames), nil
}
func (n *nullTransport) Recv() <-chan []byte                 { return n.ch }
func (n *nullTransport) RecvBatch([][]byte) int              { return 0 }
func (n *nullTransport) Release([]byte)                      {}
func (n *nullTransport) Stats() (sent, recv, dropped uint64) { return 0, 0, 0 }

func (n *nullTransport) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sends
}

// send1 sends one frame as a batch of one.
func send1(tr Transport, frame []byte) error {
	_, err := tr.SendBatch([][]byte{frame})
	return err
}

func TestFaultyFailFirstNPerFrame(t *testing.T) {
	inner := &nullTransport{}
	ft := NewFaultyTransport(inner, FaultConfig{FailFirstN: 2})
	frameA := []byte("frame-a")
	frameB := []byte("frame-b")
	for i := 0; i < 2; i++ {
		if err := send1(ft, frameA); err == nil {
			t.Fatalf("attempt %d of frameA succeeded, want transient fault", i+1)
		}
	}
	if err := send1(ft, frameA); err != nil {
		t.Fatalf("attempt 3 of frameA failed: %v", err)
	}
	// frameB has its own schedule regardless of interleaving.
	if err := send1(ft, frameB); err == nil {
		t.Fatal("first attempt of frameB succeeded, want fault")
	}
	if inner.count() != 1 {
		t.Errorf("inner saw %d sends, want 1", inner.count())
	}
	if ft.Injected() != 3 {
		t.Errorf("Injected() = %d, want 3", ft.Injected())
	}
}

func TestFaultyTransientErrorClass(t *testing.T) {
	ft := NewFaultyTransport(&nullTransport{}, FaultConfig{FailFirstN: 1})
	err := send1(ft, []byte("x"))
	if err == nil {
		t.Fatal("want error")
	}
	var se *SendError
	if !errors.As(err, &se) || !se.Transient() {
		t.Errorf("error %v not classified transient", err)
	}
	if !errors.Is(err, syscall.ENOBUFS) {
		t.Errorf("transient error does not unwrap to ENOBUFS: %v", err)
	}
}

func TestFaultyFatalAfter(t *testing.T) {
	inner := &nullTransport{}
	ft := NewFaultyTransport(inner, FaultConfig{FatalAfter: 3})
	for i := 0; i < 3; i++ {
		if err := send1(ft, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d failed early: %v", i, err)
		}
	}
	err := send1(ft, []byte("doomed"))
	if err == nil {
		t.Fatal("send after FatalAfter succeeded")
	}
	var se *SendError
	if !errors.As(err, &se) || se.Transient() {
		t.Errorf("post-threshold error %v should be fatal", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("fatal error does not unwrap to EIO: %v", err)
	}
	if inner.count() != 3 {
		t.Errorf("inner saw %d sends, want 3", inner.count())
	}
}

func TestFaultyTransientProbDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		ft := NewFaultyTransport(&nullTransport{}, FaultConfig{Seed: seed, TransientProb: 0.5})
		out := make([]bool, 200)
		for i := range out {
			out[i] = send1(ft, []byte{byte(i), byte(i >> 8)}) != nil
		}
		return out
	}
	a, b := run(7), run(7)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails < 50 || fails > 150 {
		t.Errorf("prob 0.5 failed %d/200 attempts", fails)
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestFaultyFailFirstSendsBurst(t *testing.T) {
	inner := &nullTransport{}
	ft := NewFaultyTransport(inner, FaultConfig{FailFirstSends: 5})
	var errs int
	for i := 0; i < 10; i++ {
		if send1(ft, []byte{byte(i)}) != nil {
			errs++
		}
	}
	if errs != 5 || inner.count() != 5 {
		t.Errorf("errs=%d inner=%d, want 5/5", errs, inner.count())
	}
}

func TestFaultyZeroConfigPassesThrough(t *testing.T) {
	inner := &nullTransport{}
	ft := NewFaultyTransport(inner, FaultConfig{})
	for i := 0; i < 100; i++ {
		if err := send1(ft, []byte{byte(i)}); err != nil {
			t.Fatalf("zero-config fault injected: %v", err)
		}
	}
	if inner.count() != 100 || ft.Injected() != 0 || ft.Attempts() != 100 {
		t.Errorf("passthrough stats wrong: inner=%d injected=%d attempts=%d",
			inner.count(), ft.Injected(), ft.Attempts())
	}
}
