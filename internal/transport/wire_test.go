package transport_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"morpheus/internal/appia"
	"morpheus/internal/cocaditem"
	"morpheus/internal/core"
	"morpheus/internal/fec"
	"morpheus/internal/group"
	"morpheus/internal/transport"
)

// pinPayload and pinSuffix describe the pinned cast: a group.cast whose
// message carries the reliable layer's origin (7) and seq (300) headers
// over a 17-byte body. pinSuffix is everything after the channel name.
const (
	pinPayload = "morpheus wire pin"
	pinSuffix  = "0a67726f75702e63617374" + // kind "group.cast"
		"07" + "ac02" + // origin 7, seq 300
		"6d6f72706865757320776972652070696e" // body
)

// wirePins are frames recorded from the encoder that pushed the channel
// and kind names onto the message as string headers and popped them off
// again. MarshalAppend now writes the names straight into the frame; these
// pins hold it to the same bytes. The long channel name takes a two-byte
// length prefix.
var wirePins = []struct {
	channel string
	hex     string
}{
	{"data", "0464617461" + pinSuffix},
	{strings.Repeat("c", 200), "c801" + strings.Repeat("63", 200) + pinSuffix},
}

// pinnedCast builds the pinned event.
func pinnedCast() *group.CastEvent {
	ev := &group.CastEvent{}
	ev.Msg = appia.NewMessage([]byte(pinPayload))
	ev.Msg.PushUvarint(300)
	ev.Msg.PushUvarint(7)
	return ev
}

// defaultRegistry registers every wire kind the tree defines in the
// process-wide registry and returns it.
func defaultRegistry() *appia.EventKindRegistry {
	group.RegisterWireEvents(nil)
	core.RegisterWireEvents(nil)
	cocaditem.RegisterWireEvents(nil)
	fec.RegisterWireEvents(nil)
	return appia.DefaultRegistry()
}

func TestMarshalMatchesPinnedWireFormat(t *testing.T) {
	reg := defaultRegistry()
	for _, pin := range wirePins {
		want, err := hex.DecodeString(pin.hex)
		if err != nil {
			t.Fatal(err)
		}
		ev := pinnedCast()
		before := append([]byte(nil), ev.Msg.Bytes()...)
		got, err := transport.MarshalAppend([]byte("prefix"), reg, pin.channel, ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("channel %.8q...: frame\n got %x\nwant prefix+%x", pin.channel, got, want)
		}
		if !bytes.Equal(ev.Msg.Bytes(), before) {
			t.Fatalf("marshalling changed the message: %x, was %x", ev.Msg.Bytes(), before)
		}

		chName, out, err := transport.Unmarshal(reg, want)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := out.(*group.CastEvent)
		if !ok || chName != pin.channel {
			t.Fatalf("decoded %T on %.8q", out, chName)
		}
		if !bytes.Equal(c.Msg.Bytes(), before) {
			t.Fatalf("decoded message %x, want %x", c.Msg.Bytes(), before)
		}
	}
}

func TestMarshalRoundTripsEveryRegisteredKind(t *testing.T) {
	reg := defaultRegistry()
	kinds := reg.Kinds()
	if len(kinds) < 18 {
		t.Fatalf("only %d kinds registered: %v", len(kinds), kinds)
	}
	for _, kind := range kinds {
		ev, err := reg.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		m := appia.NewMessage([]byte("body of " + kind))
		m.PushString("header")
		m.PushUvarint(1 << 40)
		ev.SendableBase().Msg = m
		wire, err := transport.Marshal(reg, "ch/"+kind, ev)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		chName, out, err := transport.Unmarshal(reg, wire)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if chName != "ch/"+kind || reflect.TypeOf(out) != reflect.TypeOf(ev) {
			t.Fatalf("%s: decoded %T on %q", kind, out, chName)
		}
		if !bytes.Equal(out.SendableBase().Msg.Bytes(), m.Bytes()) {
			t.Fatalf("%s: message %x, want %x", kind, out.SendableBase().Msg.Bytes(), m.Bytes())
		}
		again, err := transport.Marshal(reg, chName, out)
		if err != nil || !bytes.Equal(again, wire) {
			t.Fatalf("%s: re-marshal %x (%v), want %x", kind, again, err, wire)
		}
	}
}

// FuzzUnmarshal feeds arbitrary frames to the decoder: it must never
// panic, and a frame it accepts must marshal back to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	reg := defaultRegistry()
	for _, pin := range wirePins {
		b, err := hex.DecodeString(pin.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, kind := range reg.Kinds() {
		ev, err := reg.New(kind)
		if err != nil {
			f.Fatal(err)
		}
		ev.SendableBase().Msg = appia.NewMessage([]byte{0, 1, 0x80, 0xff})
		wire, err := transport.Marshal(reg, "data@"+kind, ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, frame []byte) {
		chName, ev, err := transport.Unmarshal(reg, frame)
		if err != nil {
			return
		}
		again, err := transport.Marshal(reg, chName, ev)
		if err != nil {
			t.Fatalf("decoded %T does not marshal: %v", ev, err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("frame %x decoded and re-encoded as %x", frame, again)
		}
	})
}
