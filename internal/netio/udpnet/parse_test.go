package udpnet

import (
	"bytes"
	"strings"
	"testing"

	"morpheus/internal/netio"
)

// TestReceivePathAllocatesNothing pins the per-frame receive work: parsing
// a body, counting it by class and finding its handler under the
// registered port string convert no bytes to strings.
func TestReceivePathAllocatesNothing(t *testing.T) {
	var ports netio.PortMux
	var got string
	ports.Set("data@g1", func(_ netio.NodeID, port string, _ []byte) { got = port })
	var counters netio.CounterSet
	body := appendFrameBody(nil, "data@g1", "data", []byte("payload"))
	if n := testing.AllocsPerRun(100, func() {
		port, class, payload, err := parseBody(body)
		if err != nil {
			t.Fatal(err)
		}
		counters.AddRxWire(class, len(payload))
		p, h, ok := ports.Lookup(port)
		if !ok {
			t.Fatalf("no handler for %q", port)
		}
		h(1, p, payload)
	}); n != 0 {
		t.Fatalf("%v allocs per frame, want 0", n)
	}
	if got != "data@g1" || counters.Snapshot().Rx["data"].Msgs == 0 {
		t.Fatalf("handler saw port %q; rx counters %+v", got, counters.Snapshot().Rx)
	}
}

// FuzzParseBody feeds arbitrary frame bodies to the decoder every received
// frame passes through: it must never panic, and a body it accepts must
// encode back to the same bytes.
func FuzzParseBody(f *testing.F) {
	for _, seed := range []struct{ port, class, payload string }{
		{"data@g1", "data", "\x04data\x0agroup.cast\x07\xac\x02payload"},
		{"ctl", "control", ""},
		{"", "", "x"},
		{strings.Repeat("p", 130), "other", strings.Repeat("z", 300)},
	} {
		f.Add(appendFrameBody(nil, seed.port, seed.class, []byte(seed.payload)))
	}
	f.Add([]byte{0x80, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, body []byte) {
		port, class, payload, err := parseBody(body)
		if err != nil {
			return
		}
		again := appendFrameBody(nil, string(port), string(class), payload)
		if !bytes.Equal(again, body) {
			t.Fatalf("body %x decoded and re-encoded as %x", body, again)
		}
		if n := frameBodyLen(string(port), string(class), payload); n != len(body) {
			t.Fatalf("frameBodyLen = %d for a %d-byte body", n, len(body))
		}
	})
}

// containerOf builds a v2 container through the coalescer's writer.
func containerOf(src netio.NodeID, frames ...[3]string) []byte {
	b := appendContainerHeader(nil, src)
	for _, f := range frames {
		b = appendContainerEntry(b, f[0], f[1], []byte(f[2]))
	}
	setContainerCount(b, len(frames))
	return b
}

// TestParseContainer pins the container walk: every counted entry comes
// back in order, and a container with a broken entry or with bytes after
// its last counted entry is rejected whole.
func TestParseContainer(t *testing.T) {
	frames := [][3]string{{"data@g1", "data", "one"}, {"ctl", "control", ""}, {"data@g1", "data", "three"}}
	b := containerOf(7, frames...)
	src, entries, err := parseContainer(b)
	if err != nil || src != 7 {
		t.Fatalf("parseContainer = src %d, err %v", src, err)
	}
	for i, want := range frames {
		if len(entries) == 0 {
			t.Fatalf("walk ended after %d of %d entries", i, len(frames))
		}
		port, class, payload, rest := nextEntry(entries)
		entries = rest
		if got := [3]string{string(port), string(class), string(payload)}; got != want {
			t.Fatalf("entry %d = %q, want %q", i, got, want)
		}
	}
	if len(entries) != 0 {
		t.Fatalf("%d bytes left after the last entry", len(entries))
	}
	for name, bad := range map[string][]byte{
		"trailing byte":   append(bytes.Clone(b), 0),
		"count too high":  func() []byte { c := bytes.Clone(b); setContainerCount(c, 4); return c }(),
		"count too low":   func() []byte { c := bytes.Clone(b); setContainerCount(c, 2); return c }(),
		"truncated entry": b[:len(b)-1],
		"short header":    b[:containerHdrLen-1],
	} {
		if _, _, err := parseContainer(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_, entries, err := parseContainer(b)
		if err != nil {
			t.Fatal(err)
		}
		for len(entries) > 0 {
			_, _, _, entries = nextEntry(entries)
		}
	}); n != 0 {
		t.Fatalf("%v allocs per container, want 0", n)
	}
}

// FuzzContainer feeds arbitrary datagrams to the v2 container walk: it
// must never panic, and a container it accepts must encode back to the
// same bytes through the coalescer's writer.
func FuzzContainer(f *testing.F) {
	f.Add(containerOf(1))
	f.Add(containerOf(2, [3]string{"data@g1", "data", "\x04data\x0agroup.cast\x07\xac\x02payload"}))
	f.Add(containerOf(-3, [3]string{"ctl", "control", ""}, [3]string{"", "", "x"},
		[3]string{strings.Repeat("p", 130), "other", strings.Repeat("z", 300)}))
	f.Add(append(containerOf(4, [3]string{"a", "b", "c"}), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		src, entries, err := parseContainer(b)
		if err != nil {
			return
		}
		again := appendContainerHeader(nil, src)
		frames := 0
		for len(entries) > 0 {
			port, class, payload, rest := nextEntry(entries)
			entries = rest
			again = appendContainerEntry(again, string(port), string(class), payload)
			frames++
		}
		setContainerCount(again, frames)
		if !bytes.Equal(again, b) {
			t.Fatalf("container %x decoded and re-encoded as %x", b, again)
		}
	})
}
