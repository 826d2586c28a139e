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
