package serve

import (
	"strings"
	"testing"
)

// parse is a test helper for request bodies.
func parse(t *testing.T, body string) Request {
	t.Helper()
	r, err := ParseRequest(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseRequest(%s): %v", body, err)
	}
	return r
}

// TestHashFieldOrderInsensitive is the core cache-key property: the hash
// is computed from the canonical encoding, so JSON field order,
// whitespace, and fault-plan spelling variations never split the cache.
func TestHashFieldOrderInsensitive(t *testing.T) {
	a := parse(t, `{"experiment":"heat","quick":true,"scheduler":"bf","seed":7,
		"fault_plan":{"drop_rate":0.25,"stalls":[{"node":1,"at_ns":100,"duration_ns":50}]}}`)
	b := parse(t, `{"fault_plan":{"stalls":[{"duration_ns":50,"at_ns":100,"node":1}],"drop_rate":0.25},
		"seed":7,"scheduler":"bf","quick":true,"experiment":"heat"}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("field order changed the hash: %s vs %s", a.Hash(), b.Hash())
	}
}

// TestHashExplicitDefaultsMatchOmitted: writing the zero value explicitly
// means the same run as omitting the field, so it must hash identically.
func TestHashExplicitDefaultsMatchOmitted(t *testing.T) {
	a := parse(t, `{"experiment":"heat"}`)
	b := parse(t, `{"experiment":"heat","quick":false,"trace":false,"seed":0,"grid_point":"","scheduler":""}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("explicit defaults changed the hash")
	}
}

// TestHashSchedulerAlias: "default" is an alias for "dependencies" and
// must share its cache entry; a real policy change must not.
func TestHashSchedulerAlias(t *testing.T) {
	def := parse(t, `{"experiment":"heat","scheduler":"default"}`)
	dep := parse(t, `{"experiment":"heat","scheduler":"dependencies"}`)
	bf := parse(t, `{"experiment":"heat","scheduler":"bf"}`)
	if def.Hash() != dep.Hash() {
		t.Fatalf("scheduler alias split the cache")
	}
	if def.Hash() == bf.Hash() {
		t.Fatalf("different scheduler hashed equal")
	}
	// heft is canonical on its own: it must alias nothing.
	heft := parse(t, `{"experiment":"heat","scheduler":"heft"}`)
	for _, other := range []Request{def, dep, bf} {
		if heft.Hash() == other.Hash() {
			t.Fatalf("heft aliased scheduler %q in the cache key", other.Scheduler)
		}
	}
}

// TestHashDistinguishesRuns: every knob that changes what the simulator
// computes must change the key. The list sweeps one knob at a time off a
// base request plus the subtle cases (armed empty fault plan, seed, grid
// point) and checks all hashes are pairwise distinct.
func TestHashDistinguishesRuns(t *testing.T) {
	bodies := []string{
		`{"experiment":"heat"}`,
		`{"experiment":"heat","quick":true}`,
		`{"experiment":"heat","scheduler":"heft"}`,
		`{"experiment":"heat","grid_point":"4node ompss"}`,
		`{"experiment":"heat","scheduler":"bf"}`,
		`{"experiment":"heat","scheduler":"affinity"}`,
		`{"experiment":"heat","grid_point":"2node ompss"}`,
		`{"experiment":"heat","seed":1}`,
		`{"experiment":"heat","seed":2}`,
		`{"experiment":"heat","fault_plan":{}}`, // armed zero plan != no plan
		`{"experiment":"heat","fault_plan":{"drop_rate":0.1}}`,
		`{"experiment":"heat","fault_plan":{"drop_rate":0.2}}`,
		`{"experiment":"heat","fault_plan":{"latency_multiplier":2}}`,
		`{"experiment":"heat","fault_plan":{"crashes":[{"node":1,"at_ns":5}]}}`,
		`{"experiment":"heat","fault_plan":{"crashes":[{"node":2,"at_ns":5}]}}`,
		`{"experiment":"heat","fault_plan":{"stalls":[{"node":1,"at_ns":5,"duration_ns":9}]}}`,
		`{"experiment":"fig9"}`,
		`{"experiment":"fig10","trace":true}`,
		`{"experiment":"fig10"}`,
		`{"experiment":"stress","stress_width":100}`,
		`{"experiment":"stress","stress_width":101}`,
		`{"experiment":"stress","stress_depth":3}`,
		`{"experiment":"stress","stress_overlap":4}`,
	}
	seen := make(map[string]string)
	for _, body := range bodies {
		h := parse(t, body).Hash()
		if len(h) != 32 {
			t.Fatalf("hash %q is not 32 hex chars", h)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %s and %s", prev, body)
		}
		seen[h] = body
	}
}

// TestHashStableAcrossCalls: hashing is a pure function of the request.
func TestHashStableAcrossCalls(t *testing.T) {
	r := parse(t, `{"experiment":"fig9","quick":true,"seed":42}`)
	h := r.Hash()
	for i := 0; i < 100; i++ {
		if r.Hash() != h {
			t.Fatalf("hash changed between calls")
		}
	}
}

// TestHashFloatExactness: the canonical float encoding is exact, so two
// drop rates that differ in the last ulp get distinct keys while the same
// decimal literal always maps to one key.
func TestHashFloatExactness(t *testing.T) {
	a := parse(t, `{"experiment":"heat","fault_plan":{"drop_rate":0.1}}`)
	b := parse(t, `{"experiment":"heat","fault_plan":{"drop_rate":0.10}}`)
	c := parse(t, `{"experiment":"heat","fault_plan":{"drop_rate":0.1000000000000001}}`)
	if a.Hash() != b.Hash() {
		t.Fatalf("same float value hashed differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatalf("distinct float values hashed equal")
	}
}

// TestValidateRejects: knobs an experiment would silently ignore are
// errors, as are unknown fields — both would alias distinct intents onto
// one cache key (or split one intent across keys).
func TestValidateRejects(t *testing.T) {
	bad := []string{
		`{}`,
		`{"experiment":"nope"}`,
		`{"experiment":"heat","typo_field":1}`,
		`{"experiment":"fig5","scheduler":"bf"}`,
		`{"experiment":"heat","scheduler":"lifo"}`,
		`{"experiment":"fig5","seed":3}`,
		`{"experiment":"fig5","fault_plan":{}}`,
		`{"experiment":"table1","seed":2}`,
		`{"experiment":"stress","scheduler":"bf"}`,
		`{"experiment":"stress","stress_depth":-1}`,
		`{"experiment":"fig9","trace":true}`,
		`{"experiment":"heat","stress_width":5}`,
		`{"experiment":"stress","stress_width":-1}`,
		`{"experiment":"heat","fault_plan":{"drop_rate":1.5}}`,
		`{"experiment":"heat","fault_plan":{"latency_multiplier":-1}}`,
		`{"experiment":"heat","fault_plan":{"stalls":[{"node":0,"at_ns":0,"duration_ns":0}]}}`,
		`{"experiment":"heat","fault_plan":{"crashes":[{"node":-1,"at_ns":0}]}}`,
		`{"experiment":"fig11","fault_plan":{"crashes":[{"node":0,"at_ns":1000}]}}`,
	}
	for _, body := range bad {
		if _, err := ParseRequest(strings.NewReader(body)); err == nil {
			t.Errorf("ParseRequest(%s) accepted a bad request", body)
		}
	}
}

// TestRemovedFieldRejected: a field the request schema no longer has is
// an unknown field, not a silently ignored knob.
func TestRemovedFieldRejected(t *testing.T) {
	_, err := ParseRequest(strings.NewReader(`{"experiment":"heat","lookahead":4}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("ParseRequest accepted a removed field: err = %v", err)
	}
}

// TestBuildIDNonEmpty: the key preamble always has a build identity.
func TestBuildIDNonEmpty(t *testing.T) {
	if BuildID() == "" {
		t.Fatal("empty build id")
	}
}
