package compile

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/parse"
)

func mustCompile(t *testing.T, program, query string, opt Options) *isa.Code {
	t.Helper()
	code, err := Compile(program, query, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return code
}

// ops extracts the opcode sequence of the whole program.
func ops(code *isa.Code) []isa.Opcode {
	out := make([]isa.Opcode, len(code.Instrs))
	for i, ins := range code.Instrs {
		out[i] = ins.Op
	}
	return out
}

func countOp(code *isa.Code, op isa.Opcode) int {
	n := 0
	for _, ins := range code.Instrs {
		if ins.Op == op {
			n++
		}
	}
	return n
}

func TestFactCompilesToGetAndProceed(t *testing.T) {
	code := mustCompile(t, "p(a, 1).", "p(X, Y)", Options{})
	if countOp(code, isa.OpGetConstant) != 2 {
		t.Errorf("want 2 get_constant:\n%s", code.Listing())
	}
	if countOp(code, isa.OpProceed) != 1 {
		t.Errorf("want 1 proceed:\n%s", code.Listing())
	}
}

func TestChainRuleUsesExecuteNotCall(t *testing.T) {
	// `a :- b.` needs no environment: compile to bare execute (LCO).
	code := mustCompile(t, "a :- b. b.", "a", Options{})
	listing := code.Listing()
	if countOp(code, isa.OpAllocate) != 1 { // only the query allocates
		t.Errorf("chain rule should not allocate:\n%s", listing)
	}
	if countOp(code, isa.OpExecute) != 1 {
		t.Errorf("chain rule should execute:\n%s", listing)
	}
}

func TestLastCallOptimization(t *testing.T) {
	code := mustCompile(t, "p :- q, r. q. r.", "p", Options{})
	// p allocates, calls q, then deallocate+execute r.
	var seq []isa.Opcode
	for _, op := range ops(code) {
		switch op {
		case isa.OpAllocate, isa.OpCall, isa.OpDeallocate, isa.OpExecute:
			seq = append(seq, op)
		}
	}
	want := []isa.Opcode{isa.OpAllocate, isa.OpCall, isa.OpDeallocate, isa.OpExecute, isa.OpAllocate, isa.OpCall}
	if len(seq) < 4 {
		t.Fatalf("sequence too short: %v\n%s", seq, code.Listing())
	}
	for i := 0; i < 4; i++ {
		if seq[i] != want[i] {
			t.Errorf("op %d = %v, want %v\n%s", i, seq[i], want[i], code.Listing())
		}
	}
}

func TestPermanentVariablesGetYSlots(t *testing.T) {
	// X spans two calls: must be permanent.
	code := mustCompile(t, "p(X) :- q(X), r(X). q(_). r(_).", "p(1)", Options{})
	if countOp(code, isa.OpGetVariableY) == 0 {
		t.Errorf("X should live in a Y slot:\n%s", code.Listing())
	}
	if countOp(code, isa.OpPutUnsafeValue) == 0 {
		t.Errorf("head-sourced Y var passed to the last call; compiler is conservative and must emit put_unsafe_value or put_value_y:\n%s", code.Listing())
	}
}

func TestTemporaryVariablesStayInRegisters(t *testing.T) {
	// X used only between head and first goal: temporary.
	code := mustCompile(t, "p(X) :- q(X). q(_).", "p(1)", Options{})
	if countOp(code, isa.OpGetVariableY) != 0 {
		t.Errorf("single-chunk variable must not get a Y slot:\n%s", code.Listing())
	}
}

func TestVoidVariablesEmitNothingOrVoid(t *testing.T) {
	code := mustCompile(t, "p(_, f(_, _)).", "p(1, f(2, 3))", Options{})
	if countOp(code, isa.OpUnifyVoid) == 0 {
		t.Errorf("structure voids should use unify_void:\n%s", code.Listing())
	}
	if countOp(code, isa.OpGetVariableX) != 0 {
		t.Errorf("bare void argument should emit nothing:\n%s", code.Listing())
	}
}

func TestFirstArgumentIndexing(t *testing.T) {
	prog := `
		t(a, 1). t(b, 2). t([], 3). t([_|_], 4). t(f(_), 5).
	`
	code := mustCompile(t, prog, "t(a, X)", Options{})
	if countOp(code, isa.OpSwitchOnTerm) != 1 {
		t.Errorf("want switch_on_term:\n%s", code.Listing())
	}
	if countOp(code, isa.OpSwitchOnConstant) != 1 {
		t.Errorf("want switch_on_constant:\n%s", code.Listing())
	}
	if countOp(code, isa.OpSwitchOnStructure) != 1 {
		t.Errorf("want switch_on_structure:\n%s", code.Listing())
	}
}

func TestNoIndexingForSingleClause(t *testing.T) {
	code := mustCompile(t, "only(x).", "only(X)", Options{})
	if countOp(code, isa.OpSwitchOnTerm)+countOp(code, isa.OpTry) != 0 {
		t.Errorf("single clause needs no indexing or choice points:\n%s", code.Listing())
	}
}

func TestVarFirstArgDisablesSwitching(t *testing.T) {
	code := mustCompile(t, "v(X, a) :- q(X). v(X, b) :- q(X). q(_).", "v(1, Z)", Options{})
	if countOp(code, isa.OpSwitchOnTerm) != 0 {
		t.Errorf("all-var first args: plain try chain expected:\n%s", code.Listing())
	}
	if countOp(code, isa.OpTry) != 1 || countOp(code, isa.OpTrust) != 1 {
		t.Errorf("want try/trust chain:\n%s", code.Listing())
	}
}

func TestCutCompilation(t *testing.T) {
	neck := mustCompile(t, "p :- !, q. p. q.", "p", Options{})
	if countOp(neck, isa.OpNeckCut) != 1 {
		t.Errorf("want neck_cut:\n%s", neck.Listing())
	}
	deep := mustCompile(t, "p(X) :- q(X), !, r(X). p(_). q(_). r(_).", "p(1)", Options{})
	if countOp(deep, isa.OpGetLevel) != 1 || countOp(deep, isa.OpCutY) != 1 {
		t.Errorf("want get_level + cut:\n%s", deep.Listing())
	}
}

func TestInlineArithmetic(t *testing.T) {
	code := mustCompile(t, "p(X, Y) :- Y is X * 2 + 1.", "p(3, R)", Options{})
	if countOp(code, isa.OpArith) < 3 { // deref X, mul, add
		t.Errorf("want register arithmetic:\n%s", code.Listing())
	}
	// No heap allocation for the expression itself.
	if countOp(code, isa.OpPutStructure) != 0 {
		t.Errorf("expression must not be built on the heap:\n%s", code.Listing())
	}
}

func TestComparisonCompilesToCompare(t *testing.T) {
	code := mustCompile(t, "p(X) :- X > 3.", "p(5)", Options{})
	if countOp(code, isa.OpCompare) != 1 {
		t.Errorf("want compare:\n%s", code.Listing())
	}
}

func TestCGECompilation(t *testing.T) {
	prog := "p(X, Y) :- q(X) & r(Y). q(_). r(_)."
	code := mustCompile(t, prog, "p(A, B)", Options{})
	if !code.Parallel {
		t.Error("Parallel flag not set")
	}
	if countOp(code, isa.OpPFrame) != 1 {
		t.Errorf("want pframe:\n%s", code.Listing())
	}
	if countOp(code, isa.OpPushGoal) != 1 {
		t.Errorf("want one push_goal (second arm):\n%s", code.Listing())
	}
	if countOp(code, isa.OpPCallLocal) != 1 {
		t.Errorf("want pcall_local (first arm):\n%s", code.Listing())
	}
	// The sequential fallback compiles both arms as calls.
	if countOp(code, isa.OpCall) < 2 {
		t.Errorf("want sequential fallback calls:\n%s", code.Listing())
	}
}

func TestCGEConditionsCompileToChecks(t *testing.T) {
	prog := "p(X, Y) :- (ground(X), indep(X, Y) | q(X) & r(Y)). q(_). r(_)."
	code := mustCompile(t, prog, "p(1, 2)", Options{})
	if countOp(code, isa.OpCheckGround) != 1 {
		t.Errorf("want check_ground:\n%s", code.Listing())
	}
	if countOp(code, isa.OpCheckIndep) != 1 {
		t.Errorf("want check_indep:\n%s", code.Listing())
	}
}

func TestSequentialModeDropsCGEs(t *testing.T) {
	prog := "p(X, Y) :- q(X) & r(Y). q(_). r(_)."
	code := mustCompile(t, prog, "p(A, B)", Options{Sequential: true})
	if code.Parallel {
		t.Error("sequential compile set Parallel")
	}
	if countOp(code, isa.OpPFrame)+countOp(code, isa.OpPushGoal)+countOp(code, isa.OpPCallLocal) != 0 {
		t.Errorf("sequential mode must not emit parallel instructions:\n%s", code.Listing())
	}
}

func TestQueryVariablesRecorded(t *testing.T) {
	code := mustCompile(t, "p(1, 2).", "p(X, Y)", Options{})
	if len(code.QueryVars) != 2 || code.QueryVars[0] != "X" || code.QueryVars[1] != "Y" {
		t.Errorf("QueryVars = %v", code.QueryVars)
	}
	if countOp(code, isa.OpStop) != 1 {
		t.Error("query must end with stop")
	}
}

func TestUndefinedProcedureError(t *testing.T) {
	if _, err := Compile("p :- missing.", "p", Options{}); err == nil {
		t.Error("undefined procedure accepted")
	}
	if _, err := Compile("p.", "missing", Options{}); err == nil {
		t.Error("undefined query goal accepted")
	}
}

func TestDisjunctionRejected(t *testing.T) {
	if _, err := Compile("p :- (a ; b). a. b.", "p", Options{}); err == nil {
		t.Error(";/2 should be rejected with a helpful error")
	}
	_, err := Compile("p :- (a -> b). a. b.", "p", Options{})
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Errorf("->/2 error unhelpful: %v", err)
	}
}

func TestBuiltinAsParallelGoalRejected(t *testing.T) {
	if _, err := Compile("p(X) :- (X = 1) & q. q.", "p(_)", Options{}); err == nil {
		t.Error("builtin as CGE arm accepted")
	}
}

func TestBadCGEConditionRejected(t *testing.T) {
	if _, err := Compile("p(X) :- (foo(X) | a & b). a. b. foo(_).", "p(1)", Options{}); err == nil {
		t.Error("arbitrary CGE condition accepted")
	}
}

func TestLongListLiteralCompiles(t *testing.T) {
	// Regression: list literals must compile in O(1) registers.
	var sb strings.Builder
	sb.WriteString("p([")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('a')
	}
	sb.WriteString("]).")
	code := mustCompile(t, sb.String(), "p(X)", Options{})
	if len(code.Instrs) == 0 {
		t.Fatal("no code")
	}
}

// TestFlattenOpKeepsOperandOrder pins flattenOp on mixed left and
// right nesting; it loops down right operands, so the order of the
// recursive and iterative halves must interleave correctly.
func TestFlattenOpKeepsOperandOrder(t *testing.T) {
	term, err := parse.OneTerm("((a & b) & (c & d)) & e & (f, g)")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, op := range flattenOp(nil, term, "&") {
		got = append(got, op.String())
	}
	if want := "a b c d e f,g"; strings.Join(got, " ") != want {
		t.Errorf("flattenOp = %q, want %q", strings.Join(got, " "), want)
	}
}

func TestDeepStructureCompiles(t *testing.T) {
	// Nested structure in query argument.
	code := mustCompile(t, "p(_).", "p(f(g(h(i(j(k(1)))))))", Options{})
	if countOp(code, isa.OpPutStructure) == 0 {
		t.Errorf("nested build missing:\n%s", code.Listing())
	}
}

func TestListingIsStable(t *testing.T) {
	// Deterministic compilation: identical inputs give identical code.
	prog := "p(a). p(b). p(f(_)). q(X) :- p(X), p(X)."
	a := mustCompile(t, prog, "q(Z)", Options{}).Listing()
	b := mustCompile(t, prog, "q(Z)", Options{}).Listing()
	if a != b {
		t.Error("compilation is not deterministic")
	}
}
