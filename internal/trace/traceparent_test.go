package trace

import "testing"

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
	got, ok := ParseTraceparent(FormatTraceparent(sc))
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
	sc.Sampled = false
	got, ok = ParseTraceparent(FormatTraceparent(sc))
	if !ok || got != sc {
		t.Fatalf("unsampled round trip: got %+v ok=%v", got, ok)
	}
}

func TestParseTraceparentFixed(t *testing.T) {
	sc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("spec example rejected")
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id = %s", sc.TraceID)
	}
	if sc.SpanID.String() != "00f067aa0ba902b7" {
		t.Fatalf("span id = %s", sc.SpanID)
	}
	if !sc.Sampled {
		t.Fatal("sampled flag not decoded")
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Unknown versions parse with the 00 layout, tolerating extra fields.
	if _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Fatal("future version with suffix rejected")
	}
	if _, ok := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"); !ok {
		t.Fatal("future version rejected")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // version 00 must be exact-length
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",   // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Fatalf("accepted %q", s)
		}
	}
}

// FuzzTraceparent: parsing never panics at any length, an accepted value
// carries non-zero ids, and every valid context survives a format-parse
// round trip — the accepted ones and ones built from the input's bytes.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		roundTrip := func(sc SpanContext) {
			if got, ok := ParseTraceparent(FormatTraceparent(sc)); !ok || got != sc {
				t.Fatalf("round trip of %+v: got %+v ok=%v", sc, got, ok)
			}
		}
		if sc, ok := ParseTraceparent(s); ok {
			if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
				t.Fatalf("%q accepted with a zero id: %+v", s, sc)
			}
			roundTrip(sc)
		}
		var sc SpanContext
		if n := copy(sc.TraceID[:], s); n == len(sc.TraceID) {
			copy(sc.SpanID[:], s[n:])
		}
		sc.Sampled = len(s)%2 == 1
		if sc.Valid() {
			roundTrip(sc)
		}
	})
}
