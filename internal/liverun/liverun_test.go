package liverun

import (
	"reflect"
	"strings"
	"testing"

	"morpheus/internal/netio"
)

func TestParsePeers(t *testing.T) {
	cases := []struct {
		in   string
		want map[netio.NodeID]string
	}{
		{"1=127.0.0.1:9001", map[netio.NodeID]string{1: "127.0.0.1:9001"}},
		{"1=127.0.0.1:9001,2=127.0.0.1:9002", map[netio.NodeID]string{1: "127.0.0.1:9001", 2: "127.0.0.1:9002"}},
		// Spaces around entries, ids and addresses; empty entries skipped.
		{" 1 = 127.0.0.1:9001 , ,2=[::1]:9002,", map[netio.NodeID]string{1: "127.0.0.1:9001", 2: "[::1]:9002"}},
		{"-3=h:1", map[netio.NodeID]string{-3: "h:1"}},
		{"2147483647=h:1", map[netio.NodeID]string{2147483647: "h:1"}},
		// A repeated id keeps the last address.
		{"1=a:1,1=b:2", map[netio.NodeID]string{1: "b:2"}},
	}
	for _, tc := range cases {
		got, err := ParsePeers(tc.in)
		if err != nil {
			t.Errorf("ParsePeers(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePeers(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParsePeersRejects(t *testing.T) {
	cases := []struct {
		in, why string
	}{
		{"1", "want id=host:port"},
		{"1=h:1,2", "want id=host:port"},
		{"x=h:1", "peer id"},
		{"=h:1", "peer id"},
		{"2147483648=h:1", "peer id"},
		{"-2147483649=h:1", "peer id"},
		{"", "empty peer directory"},
		{" , ", "empty peer directory"},
	}
	for _, tc := range cases {
		got, err := ParsePeers(tc.in)
		if err == nil {
			t.Errorf("ParsePeers(%q) = %v, want an error", tc.in, got)
			continue
		}
		if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("ParsePeers(%q) error %q does not mention %q", tc.in, err, tc.why)
		}
	}
}

func TestParseGroups(t *testing.T) {
	cases := []struct {
		in   string
		want map[string]string
	}{
		{"", nil},
		{"   ", nil},
		{"lan=239.77.7.1:9700", map[string]string{"lan": "239.77.7.1:9700"}},
		{" lan = 239.77.7.1:9700 ,, wlan=239.77.7.2:9701 ", map[string]string{"lan": "239.77.7.1:9700", "wlan": "239.77.7.2:9701"}},
		// Only empty entries: a present but empty map.
		{",", map[string]string{}},
	}
	for _, tc := range cases {
		got, err := ParseGroups(tc.in)
		if err != nil {
			t.Errorf("ParseGroups(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseGroups(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"lan", "lan=g:1,wlan"} {
		if got, err := ParseGroups(in); err == nil || !strings.Contains(err.Error(), "want segment=group:port") {
			t.Errorf("ParseGroups(%q) = %v, %v; want a missing-= error", in, got, err)
		}
	}
}

func TestParseMembers(t *testing.T) {
	cases := []struct {
		in   string
		want []netio.NodeID
	}{
		{"", nil},
		{"  ", nil},
		{"1", []netio.NodeID{1}},
		// Order and duplicates are kept as written; spaces and empty
		// entries are not.
		{" 3, 1,,100 ,1", []netio.NodeID{3, 1, 100, 1}},
		{"-2147483648,2147483647", []netio.NodeID{-2147483648, 2147483647}},
	}
	for _, tc := range cases {
		got, err := ParseMembers(tc.in)
		if err != nil {
			t.Errorf("ParseMembers(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseMembers(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"a", "1,b", "1.5", "2147483648", "-2147483649", "1=2"} {
		if got, err := ParseMembers(in); err == nil || !strings.Contains(err.Error(), "member") {
			t.Errorf("ParseMembers(%q) = %v, %v; want a member error", in, got, err)
		}
	}
}

func TestFormatMembers(t *testing.T) {
	cases := []struct {
		in   []netio.NodeID
		want string
	}{
		{nil, ""},
		{[]netio.NodeID{7}, "7"},
		{[]netio.NodeID{1, 2, 100}, "1,2,100"},
		{[]netio.NodeID{100, 1}, "100,1"},
	}
	for _, tc := range cases {
		if got := FormatMembers(tc.in); got != tc.want {
			t.Errorf("FormatMembers(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// FormatMembers and ParseMembers are inverse on any list.
	for _, tc := range cases {
		back, err := ParseMembers(FormatMembers(tc.in))
		if err != nil || !reflect.DeepEqual(back, tc.in) {
			t.Errorf("ParseMembers(FormatMembers(%v)) = %v, %v", tc.in, back, err)
		}
	}
}
