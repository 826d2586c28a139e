package appiaxml_test

import (
	"reflect"
	"testing"

	"morpheus/internal/appia/appiaxml"
	"morpheus/internal/core"
)

// FuzzParse feeds arbitrary text to the document decoder. A member decodes
// the coordinator's configuration with ParseString when a reconfiguration
// arrives, so this input comes off the network: decoding must never panic,
// and a document that parses and marshals must re-parse to an equal
// document.
func FuzzParse(f *testing.F) {
	for _, doc := range []*appiaxml.Document{
		core.PlainConfig(), core.MechoConfig(1), core.ArqConfig(), core.FecConfig(8, 2),
	} {
		text, err := doc.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	f.Add(`<appia/>`)
	f.Add(`<appia><channel name="c"><session layer="l"><param name="p"> v </param></session></channel></appia>`)
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := appiaxml.ParseString(text)
		if err != nil {
			return
		}
		out, err := doc.Marshal()
		if err != nil {
			return
		}
		again, err := appiaxml.ParseString(out)
		if err != nil {
			t.Fatalf("marshalled document does not parse: %v\ninput: %q\nmarshalled: %q", err, text, out)
		}
		if !reflect.DeepEqual(again, doc) {
			t.Fatalf("round trip changed the document:\nparsed:   %#v\nreparsed: %#v\ninput: %q\nmarshalled: %q", doc, again, text, out)
		}
	})
}
