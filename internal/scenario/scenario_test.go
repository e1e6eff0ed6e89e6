package scenario_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"hermit/internal/engine"
	"hermit/internal/hermit"
	"hermit/internal/scenario"
	"hermit/internal/server"
)

// testScale shrinks canned op budgets to the per-phase floor so the
// whole suite replays in well under a second per scenario.
const testScale = 0.001

// TestCannedSpecsRoundTrip: every checked-in spec must parse, validate,
// and survive a JSON round trip unchanged (DisallowUnknownFields in
// Parse catches typo'd knobs at decode time, this catches fields the
// struct encodes differently than the file spells them).
func TestCannedSpecsRoundTrip(t *testing.T) {
	names := scenario.CannedNames()
	if len(names) < 4 {
		t.Fatalf("want >= 4 canned scenarios, have %d: %v", len(names), names)
	}
	for _, name := range names {
		spec, err := scenario.Canned(name)
		if err != nil {
			t.Fatalf("canned %q: %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("canned %q: spec names itself %q (file and name field must agree)", name, spec.Name)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("canned %q: re-encode: %v", name, err)
		}
		again, err := scenario.Parse(data)
		if err != nil {
			t.Fatalf("canned %q: re-decode: %v", name, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Errorf("canned %q: round trip changed the spec:\n  was %+v\n  now %+v", name, spec, again)
		}
		if spec.Hash() != again.Hash() {
			t.Errorf("canned %q: round trip changed the spec hash", name)
		}
	}
}

// TestParseRejects covers the validator's fences.
func TestParseRejects(t *testing.T) {
	for _, tc := range []struct{ label, src string }{
		{"unknown field", `{"name":"x","seed":1,"table":{"value_cols":1},"phases":[{"name":"p","ops":10,"mix":{"point":1},"arival":{}}]}`},
		{"no phases", `{"name":"x","seed":1,"table":{"value_cols":1},"phases":[]}`},
		{"empty mix", `{"name":"x","seed":1,"table":{"value_cols":1},"phases":[{"name":"p","ops":10,"mix":{},"keys":{},"arrival":{}}]}`},
		{"poisson without rate", `{"name":"x","seed":1,"table":{"value_cols":1},"phases":[{"name":"p","ops":10,"mix":{"point":1},"keys":{},"arrival":{"kind":"poisson"}}]}`},
		{"zipf s below 1", `{"name":"x","seed":1,"table":{"value_cols":1},"phases":[{"name":"p","ops":10,"mix":{"point":1},"keys":{"kind":"zipf","zipf":0.5},"arrival":{}}]}`},
		{"advisor over the wire", `{"name":"x","seed":1,"target":"wire","advisor":true,"table":{"value_cols":1},"phases":[{"name":"p","ops":10,"mix":{"point":1},"keys":{},"arrival":{}}]}`},
		{"weights vs tenants", `{"name":"x","seed":1,"tenants":2,"table":{"value_cols":1},"phases":[{"name":"p","ops":10,"mix":{"point":1},"keys":{},"arrival":{},"tenant_weights":[1]}]}`},
		{"correlated needs cols", `{"name":"x","seed":1,"table":{"value_cols":1,"correlated":true},"phases":[{"name":"p","ops":10,"mix":{"point":1},"keys":{},"arrival":{}}]}`},
	} {
		if _, err := scenario.Parse([]byte(tc.src)); err == nil {
			t.Errorf("%s: Parse accepted an invalid spec", tc.label)
		}
	}
}

// TestCompileDeterminism: same spec + seed + scale → the same trace
// hash; a different seed or scale → a different op stream.
func TestCompileDeterminism(t *testing.T) {
	for _, name := range scenario.CannedNames() {
		spec, err := scenario.Canned(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := scenario.Compile(spec, testScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := scenario.Compile(spec, testScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.TraceHash != b.TraceHash {
			t.Errorf("%s: two compiles of one spec disagree: %s vs %s", name, a.TraceHash, b.TraceHash)
		}
		if a.Hash() != a.TraceHash {
			t.Errorf("%s: recomputed hash %s != compiled hash %s", name, a.Hash(), a.TraceHash)
		}
		reseeded := *spec
		reseeded.Seed += 1000
		c, err := scenario.Compile(&reseeded, testScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.TraceHash == a.TraceHash {
			t.Errorf("%s: trace hash ignores the seed", name)
		}
	}
}

// TestCompileShapes spot-checks compiled op semantics: a load phase is
// all inserts with sequential keys, reads never reference keys the trace
// has not inserted, and open-loop phases carry a nondecreasing arrival
// schedule.
func TestCompileShapes(t *testing.T) {
	spec, err := scenario.Canned("timeseries")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.Compile(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	load := tr.Phases[0]
	next := 0.0
	for i := range load.Ops {
		op := &load.Ops[i]
		if op.Kind != scenario.OpInsert {
			t.Fatalf("load op %d: kind %v, want insert", i, op.Kind)
		}
		if op.Row[0] != next {
			t.Fatalf("load op %d: key %g, want sequential %g", i, op.Row[0], next)
		}
		if op.ArrivalUS != -1 {
			t.Fatalf("load op %d: closed-loop op has arrival %d", i, op.ArrivalUS)
		}
		next++
	}
	steady := tr.Phases[1]
	if !steady.OpenLoop {
		t.Fatal("steady phase should be open-loop")
	}
	populated := next
	var last int64
	for i := range steady.Ops {
		op := &steady.Ops[i]
		if op.ArrivalUS < last {
			t.Fatalf("steady op %d: arrival %d before previous %d", i, op.ArrivalUS, last)
		}
		last = op.ArrivalUS
		switch op.Kind {
		case scenario.OpInsert:
			if op.Row[0] != populated {
				t.Fatalf("steady op %d: insert key %g, want %g", i, op.Row[0], populated)
			}
			populated++
		case scenario.OpPoint:
			if op.Key < 0 || op.Key >= populated {
				t.Fatalf("steady op %d: point key %g outside populated [0, %g)", i, op.Key, populated)
			}
		}
	}
}

// startTestServer self-hosts a hermitd over a fresh durable engine and
// returns its address (the scenario package itself never imports the
// server — targets take addresses).
func startTestServer(t *testing.T) string {
	t.Helper()
	d, err := engine.OpenDurable(t.TempDir(), hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := server.New(d, server.Options{MaxInflight: 1024, QueueDepth: 128, Workers: 2})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr().String()
}

// replayOn compiles the named canned scenario and replays it on one
// target, asserting a clean run.
func replayOn(t *testing.T, name, kind string, opts scenario.TargetOptions) *scenario.Result {
	t.Helper()
	spec, err := scenario.Canned(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.Compile(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := scenario.NewTarget(kind, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Close()
	res, err := scenario.Replay(tr, tg)
	if err != nil {
		t.Fatalf("%s on %s: %v", name, kind, err)
	}
	for _, ph := range res.Phases {
		if ph.Errors != 0 {
			t.Fatalf("%s on %s: phase %s had %d errors", name, kind, ph.Name, ph.Errors)
		}
		if len(ph.LatenciesUS) != ph.Ops {
			t.Fatalf("%s on %s: phase %s recorded %d samples for %d ops",
				name, kind, ph.Name, len(ph.LatenciesUS), ph.Ops)
		}
	}
	return res
}

// TestReplayDeterminismAcrossTargets is the PR's acceptance test: one
// spec, two full replays — embedded engine and over the wire against a
// self-hosted hermitd — must report byte-identical op-trace hashes, and
// both must match a third independent compile.
func TestReplayDeterminismAcrossTargets(t *testing.T) {
	embed := replayOn(t, "timeseries", scenario.TargetEmbed, scenario.TargetOptions{})
	wire := replayOn(t, "timeseries", scenario.TargetWire, scenario.TargetOptions{Addr: startTestServer(t)})
	if embed.TraceHash != wire.TraceHash {
		t.Fatalf("trace hash diverged across targets: embed %s vs wire %s", embed.TraceHash, wire.TraceHash)
	}
	spec, err := scenario.Canned("timeseries")
	if err != nil {
		t.Fatal(err)
	}
	check, err := scenario.Compile(spec, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if check.TraceHash != embed.TraceHash {
		t.Fatalf("independent recompile hash %s != replayed hash %s", check.TraceHash, embed.TraceHash)
	}
	if embed.SpecHash != spec.Hash() {
		t.Fatalf("replay spec hash %s != spec hash %s", embed.SpecHash, spec.Hash())
	}
}

// TestReplayDurableWithTxns replays the contended OLTP scenario on the
// durable engine: aborts are an expected outcome (never errors), and the
// replay must still account one latency sample per op.
func TestReplayDurableWithTxns(t *testing.T) {
	res := replayOn(t, "zipf-oltp", scenario.TargetDurable, scenario.TargetOptions{Dir: t.TempDir()})
	contend := res.Phases[len(res.Phases)-1]
	if contend.Rows == 0 {
		t.Fatal("contended phase touched no rows")
	}
	t.Logf("contend: %d ops, %d aborts, %.0f ops/sec", contend.Ops, contend.Aborts, contend.OpsPerSec())
}

// TestReplayMultiTenantWire replays the noisy-neighbor scenario (4
// tenant tables, bursty open-loop arrivals, hotset keys) over the wire.
func TestReplayMultiTenantWire(t *testing.T) {
	res := replayOn(t, "noisy-neighbor", scenario.TargetWire, scenario.TargetOptions{Addr: startTestServer(t)})
	if got := len(res.Phases); got != 2 {
		t.Fatalf("want 2 phases, got %d", got)
	}
	if !res.Phases[1].OpenLoop {
		t.Fatal("noisy phase should replay open-loop")
	}
}

// TestReplayAdvisorScenario replays the bulk-load-then-advisor scenario
// embedded (the only place the advisor can run).
func TestReplayAdvisorScenario(t *testing.T) {
	replayOn(t, "bulkload-advisor", scenario.TargetEmbed, scenario.TargetOptions{})
}

// TestDurablePlainTableIsLogged replays inserts into a plain (unpartitioned)
// table on the durable target, closes it, and reopens the directory with
// the engine alone: every insert and the setup-time B+-tree must have
// reached the WAL or a checkpoint, exactly as on partitioned tables.
func TestDurablePlainTableIsLogged(t *testing.T) {
	spec, err := scenario.Parse([]byte(`{
		"name": "durable-plain",
		"seed": 1,
		"target": "durable",
		"table": { "value_cols": 2, "partitions": 0, "btree_cols": [1] },
		"phases": [{ "name": "load", "ops": 500, "arrival": { "workers": 2 }, "keys": {}, "mix": { "insert": 1 } }]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := scenario.Compile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tg, err := scenario.NewTarget(scenario.TargetDurable, scenario.TargetOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Replay(tr, tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Close(); err != nil {
		t.Fatal(err)
	}
	load := res.Phases[0]
	if load.Errors != 0 || load.Ops == 0 {
		t.Fatalf("load phase: %d ops, %d errors", load.Ops, load.Errors)
	}

	d, err := engine.OpenDurable(dir, hermit.PhysicalPointers)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tb, err := d.Table(scenario.TableName(0))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != load.Ops {
		t.Fatalf("reopened table holds %d rows, want the %d replayed inserts", tb.Len(), load.Ops)
	}
	if tb.Secondary(1) == nil {
		t.Fatal("reopened table lost the setup-time B+-tree on column 1")
	}
}
