package minic_test

import (
	"testing"

	"repro/internal/minic"
	"repro/internal/workload"
)

// FuzzCompile feeds arbitrary source to the front end, which the analysis
// daemon exposes to untrusted submissions. Compile must return a module or
// an error — never panic — and must be deterministic. The lexer sizes its
// token slice from a counting pass over the same source, so the count and
// the tokens it then reads must agree exactly.
//
// Seeds: the nine paper apps and small scaled programs. Run continuously
// with
//
//	go test -run '^$' -fuzz '^FuzzCompile$' ./internal/minic
func FuzzCompile(f *testing.F) {
	for _, app := range workload.Apps() {
		f.Add(app.Source)
	}
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(workload.ScaledProgram(seed, 2))
	}
	f.Add("int main() { return 0; }")
	f.Add("int main( { /* unterminated")
	f.Fuzz(func(t *testing.T, src string) {
		n, capacity, lexErr := minic.LexSized(src)
		if lexErr == nil && n != capacity {
			t.Fatalf("lexer read %d tokens into a slice sized %d", n, capacity)
		}
		m1, err1 := minic.Compile("fuzz", src)
		m2, err2 := minic.Compile("fuzz", src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic outcome: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic error: %q vs %q", err1, err2)
			}
			return
		}
		if lexErr != nil {
			t.Fatalf("compiled although the lexer failed: %v", lexErr)
		}
		if m1.String() != m2.String() {
			t.Fatal("nondeterministic module")
		}
	})
}
