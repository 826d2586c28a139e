package appia

import (
	"bytes"
	"testing"
)

// TestMessageCloneCopyOnWrite is the fan-out correctness property: a clone
// popped after the original pushes must still read the original bytes, and
// vice versa — the shared buffer is copied out before any mutation.
func TestMessageCloneCopyOnWrite(t *testing.T) {
	payload := []byte("payload-bytes")
	m := NewMessage(payload)
	m.PushString("seq=7")

	c := m.Clone()

	// The original mutates after the clone was taken.
	m.PushString("outer-header")
	m.PushUint32(0xdeadbeef)

	// The clone must be unaffected.
	if got, err := c.PopString(); err != nil || got != "seq=7" {
		t.Fatalf("clone header = %q, %v; want %q", got, err, "seq=7")
	}
	if !bytes.Equal(c.Bytes(), payload) {
		t.Fatalf("clone payload = %q, want %q", c.Bytes(), payload)
	}

	// And the original must still carry everything it pushed.
	if v, err := m.PopUint32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("original uint32 = %x, %v", v, err)
	}
	for _, want := range []string{"outer-header", "seq=7"} {
		if got, err := m.PopString(); err != nil || got != want {
			t.Fatalf("original header = %q, %v; want %q", got, err, want)
		}
	}
	if !bytes.Equal(m.Bytes(), payload) {
		t.Fatalf("original payload = %q, want %q", m.Bytes(), payload)
	}
	c.Release()
	m.Release()
}

// TestMessageClonePushDoesNotCorruptSibling drives the other direction: the
// clone pushes first, while the original keeps reading the shared buffer.
func TestMessageClonePushDoesNotCorruptSibling(t *testing.T) {
	m := NewMessage([]byte("shared"))
	m.PushUvarint(99)
	c := m.Clone()
	c.PushString("clone-only")

	if v, err := m.PopUvarint(); err != nil || v != 99 {
		t.Fatalf("original uvarint = %d, %v; want 99", v, err)
	}
	if !bytes.Equal(m.Bytes(), []byte("shared")) {
		t.Fatalf("original payload = %q", m.Bytes())
	}
	if got, err := c.PopString(); err != nil || got != "clone-only" {
		t.Fatalf("clone header = %q, %v", got, err)
	}
	if v, err := c.PopUvarint(); err != nil || v != 99 {
		t.Fatalf("clone uvarint = %d, %v; want 99", v, err)
	}
	c.Release()
	m.Release()
}

// TestMessageCloneZeroAlloc asserts the read-only fan-out path never
// allocates: cloning shares the buffer and releasing recycles the struct.
func TestMessageCloneZeroAlloc(t *testing.T) {
	m := NewMessage(make([]byte, 512))
	m.PushString("hdr")
	defer m.Release()
	// Warm the pools.
	for i := 0; i < 8; i++ {
		m.Clone().Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		c := m.Clone()
		if c.Len() != m.Len() {
			t.Fatal("length mismatch")
		}
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("read-only Clone allocates %.1f times per op, want 0", allocs)
	}
}

// TestMessagePushPopZeroAlloc asserts a steady-state header round trip on an
// exclusively-owned message never allocates once the buffer exists.
func TestMessagePushPopZeroAlloc(t *testing.T) {
	m := NewMessage(make([]byte, 256))
	defer m.Release()
	hdr := []byte("retransmit-header")
	allocs := testing.AllocsPerRun(200, func() {
		m.PushUvarint(7)
		m.PushBytes(hdr)
		if _, err := m.PopBytes(); err != nil {
			t.Fatal(err)
		}
		if v, err := m.PopUvarint(); err != nil || v != 7 {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("push/pop round trip allocates %.1f times per op, want 0", allocs)
	}
}

// TestMessageLifecycleZeroAlloc asserts the full create/use/release cycle is
// allocation-free once the pools are warm — the per-frame path of the
// transport layer.
func TestMessageLifecycleZeroAlloc(t *testing.T) {
	payload := make([]byte, 128)
	// Warm the pools.
	for i := 0; i < 8; i++ {
		NewMessage(payload).Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		m := NewMessage(payload)
		m.PushUvarint(42)
		if _, err := m.PopUvarint(); err != nil {
			t.Fatal(err)
		}
		m.Release()
	})
	if allocs != 0 {
		t.Fatalf("message lifecycle allocates %.1f times per op, want 0", allocs)
	}
}

// TestMessageReleaseLastOwnerKeepsData ensures releasing one sibling does
// not disturb the survivor sharing the buffer.
func TestMessageReleaseLastOwnerKeepsData(t *testing.T) {
	m := NewMessage([]byte("keepme"))
	c := m.Clone()
	m.Release()
	if !bytes.Equal(c.Bytes(), []byte("keepme")) {
		t.Fatalf("survivor reads %q after sibling release", c.Bytes())
	}
	c.Release()
}

// TestMessageBufferSizeClasses pins the buffer sizing: every buffer up to
// maxPooledCap comes from the smallest power-of-two class that holds it,
// so a small message never carries a kilobyte-scale buffer, and a larger
// one is allocated to size and never pooled.
func TestMessageBufferSizeClasses(t *testing.T) {
	for _, n := range []int{0, 1, 64, 128, minBufCap, minBufCap + 1, 1088, 2048, 2049, maxPooledCap - 1, maxPooledCap} {
		sb := getBuf(n)
		k := bufClass(n)
		if k >= bufClasses {
			t.Fatalf("getBuf(%d): class %d beyond the pooled classes", n, k)
		}
		want := minBufCap << k
		if len(sb.data) != n || cap(sb.data) != want {
			t.Fatalf("getBuf(%d): len %d cap %d, want len %d cap %d", n, len(sb.data), cap(sb.data), n, want)
		}
		if n > minBufCap && want >= 2*n {
			t.Fatalf("getBuf(%d): class cap %d is not the smallest that holds it", n, want)
		}
		unref(sb)
	}
	big := getBuf(maxPooledCap + 1)
	if bufClass(maxPooledCap+1) != bufClasses || len(big.data) != maxPooledCap+1 {
		t.Fatalf("oversize buffer: class %d len %d", bufClass(maxPooledCap+1), len(big.data))
	}
	unref(big)
	if m := NewMessage(make([]byte, 64)); cap(m.sb.data) != minBufCap {
		t.Fatalf("64-byte message backed by a %d-byte buffer, want %d", cap(m.sb.data), minBufCap)
	}
}
