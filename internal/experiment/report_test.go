package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixtureReport exercises alignment, quoting and notes in one table.
func fixtureReport() Report {
	return Report{
		ID:     "fixture",
		Title:  "Golden fixture",
		Header: []string{"Topology", "Value", "Remark"},
		Rows: [][]string{
			{"3x3 mesh", "0.000123", "plain"},
			{"8x8 torus", "1.5", `quote " and, comma`},
			{"long-name-topology", "2", ""},
		},
		Notes: []string{"first note", "second, with comma"},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestReportRenderGolden(t *testing.T) {
	var b bytes.Buffer
	if err := fixtureReport().Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.txt", b.Bytes())
}

func TestReportCSVGolden(t *testing.T) {
	var b bytes.Buffer
	if err := fixtureReport().CSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.csv", b.Bytes())
}

func TestReportJSONGolden(t *testing.T) {
	var b bytes.Buffer
	if err := fixtureReport().JSON(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fixture.json", b.Bytes())
}

// A run report must survive an encode/decode round trip intact.
func TestRunReportJSONRoundTrip(t *testing.T) {
	o := RunConfig(MustConfig("3x3 mesh", core.Parallel, WithSeed(1), WithTelemetry()))
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	rr := NewRunReport(o, fixtureReport())
	var b bytes.Buffer
	if err := rr.JSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunReport(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, back) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, rr)
	}
	if back.Telemetry == nil {
		t.Fatal("telemetry snapshot lost in round trip")
	}
	if h, ok := back.Telemetry.Histogram(core.MetricFMServicePrefix + "completion"); !ok || h.Count == 0 {
		t.Error("per-phase FM service histogram lost in round trip")
	}
	if _, ok := back.Telemetry.Counter(core.MetricFMRetries); !ok {
		t.Error("retry counter lost in round trip")
	}
}

// testdata/run_report_v3_regions.json is a v3 report written by a binary
// that still carried the region-sharded simulator (3x3 mesh, 2 regions).
// Its regions section must keep decoding and round-tripping, while runs
// today never emit one.
func TestRunReportRegionsRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "run_report_v3_regions.json"))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := DecodeRunReport(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Regions == nil || rr.Regions.Regions != 2 || len(rr.Regions.RegionEvents) != 2 {
		t.Fatalf("regions section not decoded: %+v", rr.Regions)
	}
	var b bytes.Buffer
	if err := rr.JSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRunReport(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr, back) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, rr)
	}
	run := NewRunReport(RunConfig(MustConfig("3x3 mesh", core.Parallel, WithSeed(1))))
	if run.Regions != nil {
		t.Errorf("run carries a regions section: %+v", run.Regions)
	}
	if run.Result == nil || rr.Result == nil || run.Result.Devices != rr.Result.Devices || run.Result.Links != rr.Result.Links {
		t.Errorf("sequential run and archived sharded run disagree on the discovered fabric")
	}
}

// Older envelope versions still decode — minus sections they predate.
func TestDecodeRunReportBackCompat(t *testing.T) {
	for _, schema := range []string{RunReportSchemaV1, RunReportSchemaV2} {
		doc := `{"schema":"` + schema + `","error":"x"}`
		if _, err := DecodeRunReport(bytes.NewReader([]byte(doc))); err != nil {
			t.Errorf("plain %s document rejected: %v", schema, err)
		}
	}
	v2spans := `{"schema":"` + RunReportSchemaV2 + `","error":"x","spans":{"spans":null,"dropped":0}}`
	if _, err := DecodeRunReport(bytes.NewReader([]byte(v2spans))); err != nil {
		t.Errorf("v2 document with spans rejected: %v", err)
	}
}

// DecodeRunReport rejects the failure shapes the smoke tool must catch.
func TestDecodeRunReportRejects(t *testing.T) {
	cases := map[string]string{
		"empty object":  `{}`,
		"wrong schema":  `{"schema":"other/v9","error":"x"}`,
		"unknown field": `{"schema":"` + RunReportSchema + `","error":"x","bogus":1}`,
		"ragged row": `{"schema":"` + RunReportSchema + `","reports":[` +
			`{"id":"r","title":"t","header":["a","b"],"rows":[["only"]]}]}`,
		"spans in v1": `{"schema":"` + RunReportSchemaV1 + `","error":"x",` +
			`"spans":{"spans":null,"dropped":0}}`,
		"regions in v1": `{"schema":"` + RunReportSchemaV1 + `","error":"x",` +
			`"regions":{"regions":2}}`,
		"regions in v2": `{"schema":"` + RunReportSchemaV2 + `","error":"x",` +
			`"regions":{"regions":2}}`,
		"zero region count": `{"schema":"` + RunReportSchema + `","error":"x",` +
			`"regions":{"regions":0}}`,
	}
	for name, doc := range cases {
		if _, err := DecodeRunReport(bytes.NewReader([]byte(doc))); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
