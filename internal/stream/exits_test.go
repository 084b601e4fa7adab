package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"locwatch/internal/geo"
	"locwatch/internal/obs"
	"locwatch/internal/privlog"
	"locwatch/internal/trace"
)

// The exit tests hold locwatchd to privlog's promise where bytes leave
// the process: every response body, the diagnostic endpoints and both
// logs are searched for the fixes the requests carried
// (privlog.FindLeaks).

// preciseCommute is commute started 250 m east of the anchor, so
// every coordinate carries full float64 precision: %v prints a
// coordinate such as 39.99 with too few digits for FindLeaks to tell
// it from an ordinary figure.
func preciseCommute() []trace.Point { return commute(250) }

func positions(pts []trace.Point) []geo.LatLon {
	out := make([]geo.LatLon, len(pts))
	for i, p := range pts {
		out[i] = p.Pos
	}
	return out
}

// requirePrecise fails when an input coordinate prints with fewer than
// 6 fractional digits, which a leak check could not recognize.
func requirePrecise(t *testing.T, inputs []geo.LatLon) {
	t.Helper()
	for _, p := range inputs {
		for _, v := range []float64{p.Lat, p.Lon} {
			_, frac, _ := strings.Cut(strconv.FormatFloat(v, 'f', -1, 64), ".")
			if len(frac) < 6 {
				t.Fatalf("input %v has a coordinate with %d fractional digits, want at least 6", p, len(frac))
			}
		}
	}
}

// assertNoLeak fails the test for every input position FindLeaks finds
// in out.
func assertNoLeak(t *testing.T, exit string, out []byte, inputs []geo.LatLon) {
	t.Helper()
	for _, hit := range privlog.FindLeaks(out, inputs) {
		t.Errorf("%s leaks a fix: %s", exit, hit)
	}
}

// TestHTTPExitsLeakNoFix drives every status path of the service API,
// then searches each response, /metrics, /debug/vars, the span record,
// the privlog.Logger output and the standard log for the fixes the
// requests carried. It captures the process-wide standard logger, so
// it must not run in parallel.
func TestHTTPExitsLeakNoFix(t *testing.T) {
	var stdlog bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&stdlog)
	defer log.SetOutput(prev)

	reg := obs.NewRegistry()
	var logged bytes.Buffer
	e := mustEngine(t, Config{MaxBatch: 64, RecomputeEvery: 16, Obs: reg})
	mux := NewMux(e, reg, privlog.NewLogger("locwatchd", &logged))

	pts := preciseCommute()
	last := pts[len(pts)-1]
	outOfRange := geo.LatLon{Lat: 91.123456789, Lon: last.Pos.Lon}
	inputs := append(positions(pts), outOfRange)
	requirePrecise(t, inputs)

	do := func(method, path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("%s %s: status %d, want %d", method, path, rec.Code, want)
		}
		assertNoLeak(t, fmt.Sprintf("%s %s (%d)", method, path, rec.Code), rec.Body.Bytes(), inputs)
	}
	post := func(user, body string, want int) {
		t.Helper()
		do(http.MethodPost, "/v1/users/"+user+"/fixes", body, want)
	}
	wire := func(pts []trace.Point) string { return fixesBody(pts).String() }

	// 202: the whole commute, so stays form and close.
	for i := 0; i < len(pts); i += 64 {
		post("alice", wire(pts[i:min(i+64, len(pts))]), http.StatusAccepted)
	}
	// 400: malformed JSON, a malformed fix, a fix out of range.
	post("alice", "{", http.StatusBadRequest)
	post("alice", fmt.Sprintf(`{"fixes":[{"lat":%v,"lon":%v,"t":"yesterday"}]}`,
		last.Pos.Lat, last.Pos.Lon), http.StatusBadRequest)
	later := last.T.Add(30 * time.Second)
	post("alice", wire([]trace.Point{{Pos: last.Pos, T: later}, {Pos: outOfRange, T: later.Add(time.Second)}}),
		http.StatusBadRequest)
	// 413: too many fixes, then too many bytes.
	post("alice", wire(append(pts[:64:64], pts[64])), http.StatusRequestEntityTooLarge)
	big := fmt.Sprintf(`{"lat":%v,"lon":%v,"t":"2026-03-02T08:00:00Z"},`, last.Pos.Lat, last.Pos.Lon)
	post("alice", `{"fixes":[`+strings.Repeat(big, 4096)+`{}]}`, http.StatusRequestEntityTooLarge)
	// 200: risk after stays have formed.
	do(http.MethodGet, "/v1/users/alice/risk", "", http.StatusOK)
	// 404: a user that never sent a fix.
	do(http.MethodGet, "/v1/users/nobody/risk", "", http.StatusNotFound)
	do(http.MethodDelete, "/v1/users/nobody", "", http.StatusNotFound)
	// 409: a user poisoned by a rewound batch.
	post("rewound", wire(pts[100:102]), http.StatusAccepted)
	post("rewound", wire(pts[:2]), http.StatusAccepted)
	do(http.MethodGet, "/v1/users/rewound/risk", "", http.StatusConflict)
	do(http.MethodGet, "/v1/users", "", http.StatusOK)
	do(http.MethodGet, "/metrics", "", http.StatusOK)
	do(http.MethodGet, "/debug/vars", "", http.StatusOK)

	// 503: everything after Close.
	if err := closeWithin(e); err != nil {
		t.Fatal(err)
	}
	post("alice", wire(pts[:1]), http.StatusServiceUnavailable)
	do(http.MethodGet, "/v1/users/alice/risk", "", http.StatusServiceUnavailable)
	do(http.MethodDelete, "/v1/users/alice", "", http.StatusServiceUnavailable)
	do(http.MethodGet, "/v1/users", "", http.StatusServiceUnavailable)

	var spans bytes.Buffer
	if err := reg.Tracer().WriteJSON(&spans); err != nil {
		t.Fatal(err)
	}
	assertNoLeak(t, "span record", spans.Bytes(), inputs)
	assertNoLeak(t, "privlog.Logger output", logged.Bytes(), inputs)
	assertNoLeak(t, "standard log output", stdlog.Bytes(), inputs)
}

// FuzzIngest posts one arbitrary body to the ingest endpoint of a
// fresh engine, then asks for that user's risk. The service must not
// panic, must answer the ingest with 202, 400 or 413 and the risk
// query with 200, 404 or 409, and neither response nor its log may
// carry a fix the body decodes to.
func FuzzIngest(f *testing.F) {
	base := time.Date(2026, 3, 2, 8, 0, 0, 0, time.UTC)
	fix := func(lat, lon float64, sec int) Fix {
		return Fix{Lat: lat, Lon: lon, T: base.Add(time.Duration(sec) * time.Second)}
	}
	body := func(fixes ...Fix) []byte {
		data, err := json.Marshal(IngestRequest{Fixes: fixes})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	const lat, lon = 39.991234567, 116.312345678
	var stay []Fix // 16 fixes a minute apart: a 15-minute stay
	for i := 0; i < 16; i++ {
		stay = append(stay, fix(lat, lon, 60*i))
	}
	for _, seed := range [][]byte{
		body(append(stay[:15:15], fix(lat+0.01, lon, 960))...),                             // a closed stay
		body(fix(lat, lon, 0), fix(lat, lon, 0), fix(lat, lon, 0)),                         // duplicate timestamps
		body(fix(lat, lon, 60), fix(lat, lon, 30), fix(lat, lon, 0)),                       // regressing timestamps
		body(fix(lat, lon, 0), fix(-lat, lon-180, 1), fix(lat, lon, 2)),                    // antipodal jumps
		body(fix(90.000001, lon, 0)),                                                       // latitude out of range
		body(fix(lat, -180.000001, 0)),                                                     // longitude out of range
		body(append(stay, fix(lat, lon, 960))...),                                          // one fix over the batch limit
		[]byte(`{"fixes":[{"lat":1e999,"lon":116.312345678,"t":"2026-03-02T08:00:00Z"}]}`), // overflows float64
		[]byte(`{"fixes":[{"lat":NaN,"lon":116.312345678,"t":"2026-03-02T08:00:00Z"}]}`),   // not JSON
		[]byte(`{"fixes":[{"lat":39.991234567,"lon":116.312345678,"t":"tomorrow"}]}`),      // bad time
		[]byte(`{"fixes":[{"lat":"39.991234567","lon":116.312345678}]}`),                   // wrong type
		[]byte(`{"fixes":[]}`),
		[]byte(`{}`),
		[]byte(`{`),
		[]byte(``),
		[]byte(`{"fixes":[` + strings.Repeat(`{"lat":39.99,"lon":116.31},`, 200) + `{}]}`), // too many bytes
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var logged bytes.Buffer
		e := mustEngine(t, Config{Shards: 1, MaxBatch: 16, RecomputeEvery: 4})
		mux := NewMux(e, nil, privlog.NewLogger("locwatchd", &logged))

		var req IngestRequest
		_ = json.Unmarshal(in, &req) // whatever decodes is what the service saw
		var inputs []geo.LatLon
		for _, fx := range req.Fixes {
			inputs = append(inputs, geo.LatLon{Lat: fx.Lat, Lon: fx.Lon})
		}

		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/users/u/fixes", bytes.NewReader(in)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("ingest answered %d: %s", rec.Code, rec.Body)
		}
		assertNoLeak(t, "ingest response", rec.Body.Bytes(), inputs)

		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/users/u/risk", nil))
		switch rec.Code {
		case http.StatusOK, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("risk answered %d: %s", rec.Code, rec.Body)
		}
		assertNoLeak(t, "risk response", rec.Body.Bytes(), inputs)
		assertNoLeak(t, "log output", logged.Bytes(), inputs)
	})
}
