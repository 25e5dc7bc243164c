package compile

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/parse"
)

// bodyItem is one element of a normalized clause body.
type bodyItem interface{ isItem() }

// itemCall is a user-predicate call.
type itemCall struct {
	name string
	args []parse.Term
	unit int
}

// itemInline is an inline builtin (arithmetic, comparison, type test,
// unification, I/O); it does not end a register-lifetime unit.
type itemInline struct {
	name string
	args []parse.Term
}

// itemCut is !.
type itemCut struct{}

// itemCGE is a Conditional Graph Expression: if conds hold, arms run in
// AND-parallel, otherwise sequentially.
type itemCGE struct {
	conds []parse.Term // ground/1, indep/2 or true
	arms  []itemCall
	unit  int // unit of the prelude / first arm; arm k has unit+k
}

func (itemCall) isItem()   {}
func (itemInline) isItem() {}
func (itemCut) isItem()    {}
func (itemCGE) isItem()    {}

// inlineBuiltins maps name/arity to "compiled inline" status.
var inlineBuiltins = map[isa.Functor]isa.Builtin{
	{Name: "=", Arity: 2}:       isa.BiUnify,
	{Name: "==", Arity: 2}:      isa.BiStructEq,
	{Name: "\\==", Arity: 2}:    isa.BiStructNe,
	{Name: "var", Arity: 1}:     isa.BiVar,
	{Name: "nonvar", Arity: 1}:  isa.BiNonvar,
	{Name: "atom", Arity: 1}:    isa.BiAtom,
	{Name: "integer", Arity: 1}: isa.BiInteger,
	{Name: "number", Arity: 1}:  isa.BiInteger,
	{Name: "atomic", Arity: 1}:  isa.BiAtomic,
	{Name: "ground", Arity: 1}:  isa.BiGround,
	{Name: "indep", Arity: 2}:   isa.BiIndep,
	{Name: "write", Arity: 1}:   isa.BiWrite,
	{Name: "nl", Arity: 0}:      isa.BiNl,
	{Name: "functor", Arity: 3}: isa.BiFunctor,
	{Name: "arg", Arity: 3}:     isa.BiArg,
	{Name: "=..", Arity: 2}:     isa.BiUniv,
	{Name: "length", Arity: 2}:  isa.BiLength,
}

var compareOps = map[string]isa.CompareOp{
	"<": isa.CmpLT, ">": isa.CmpGT, "=<": isa.CmpLE,
	">=": isa.CmpGE, "=:=": isa.CmpEQ, "=\\=": isa.CmpNE,
}

var arithOps = map[string]isa.ArithOp{
	"+": isa.ArithAdd, "-": isa.ArithSub, "*": isa.ArithMul,
	"//": isa.ArithIDiv, "/": isa.ArithDiv, "mod": isa.ArithMod,
	"rem": isa.ArithRem,
}

// varInfo tracks per-clause variable state during compilation.
type varInfo struct {
	v        *parse.Var
	units    map[int]bool
	count    int
	inCGE    bool
	perm     bool
	yslot    int16
	xreg     int16
	assigned bool // register/slot holds the variable at the current point
	heapSafe bool // value known to reside on the heap (or atomic)
}

// clauseCtx compiles one clause.
type clauseCtx struct {
	e           *emitter
	functor     isa.Functor
	head        parse.Term
	items       []bodyItem
	vars        map[*parse.Var]*varInfo
	numY        int
	cutSlot     int16 // -1 when absent
	hasCGE      bool
	needEnv     bool
	lastCall    int // index of the LCO call item, -1 otherwise
	tempBase    int16
	scratch     int16 // next scratch register (bump allocator)
	scratchBase int16
	scratchFree []int16 // recycled scratch registers (head expansion)
	query       bool
	queryVars   []string
}

func goalFunctor(t parse.Term) (string, []parse.Term, error) {
	switch g := t.(type) {
	case parse.Atom:
		return string(g), nil, nil
	case *parse.Compound:
		return g.Functor, g.Args, nil
	default:
		return "", nil, fmt.Errorf("invalid goal %v", t)
	}
}

// normalize flattens a body term into items, assigning call units.
func (cc *clauseCtx) normalize(body parse.Term) error {
	unit := 0
	var walk func(t parse.Term) error
	addCall := func(name string, args []parse.Term) {
		cc.items = append(cc.items, itemCall{name: name, args: args, unit: unit})
		unit++
	}
	walk = func(t parse.Term) error {
		if c, ok := t.(*parse.Compound); ok && c.Functor == "," && c.Arity() == 2 {
			if err := walk(c.Args[0]); err != nil {
				return err
			}
			return walk(c.Args[1])
		}
		// CGE forms: (conds | g1 & g2 ...) or g1 & g2.
		var conds []parse.Term
		parTerm := t
		if c, ok := t.(*parse.Compound); ok && c.Functor == "|" && c.Arity() == 2 {
			conds = flattenOp(nil, c.Args[0], ",")
			parTerm = c.Args[1]
		}
		if c, ok := parTerm.(*parse.Compound); ok && c.Functor == "&" && c.Arity() == 2 {
			armTerms := flattenOp(nil, parTerm, "&")
			if cc.e.opt.Sequential {
				// WAM baseline: plain conjunction, conditions dropped
				// (they only guard parallelism).
				for _, a := range armTerms {
					name, args, err := goalFunctor(a)
					if err != nil {
						return err
					}
					addCall(name, args)
				}
				return nil
			}
			cge := itemCGE{conds: conds, unit: unit}
			for _, a := range armTerms {
				name, args, err := goalFunctor(a)
				if err != nil {
					return err
				}
				f := isa.Functor{Name: name, Arity: len(args)}
				if _, inline := inlineBuiltins[f]; inline {
					return fmt.Errorf("builtin %v cannot be a parallel goal", f)
				}
				if _, cmp := compareOps[name]; cmp && len(args) == 2 {
					return fmt.Errorf("comparison %s cannot be a parallel goal", name)
				}
				cge.arms = append(cge.arms, itemCall{name: name, args: args, unit: unit})
				unit++
			}
			for _, cond := range cge.conds {
				if err := validateCond(cond); err != nil {
					return err
				}
			}
			cc.items = append(cc.items, cge)
			cc.hasCGE = true
			return nil
		}
		if conds != nil {
			return fmt.Errorf("'|' without '&' parallel body in %v", t)
		}

		name, args, err := goalFunctor(t)
		if err != nil {
			return err
		}
		switch {
		case name == "true" && len(args) == 0:
			return nil
		case name == "fail" && len(args) == 0 || name == "false" && len(args) == 0:
			cc.items = append(cc.items, itemInline{name: "fail"})
			return nil
		case name == "!" && len(args) == 0:
			cc.items = append(cc.items, itemCut{})
			return nil
		case name == ";" || name == "->":
			return fmt.Errorf("control construct %s/2 is not supported; rewrite with auxiliary predicates", name)
		case name == "is" && len(args) == 2:
			cc.items = append(cc.items, itemInline{name: name, args: args})
			return nil
		}
		if _, ok := compareOps[name]; ok && len(args) == 2 {
			cc.items = append(cc.items, itemInline{name: name, args: args})
			return nil
		}
		if _, ok := inlineBuiltins[isa.Functor{Name: name, Arity: len(args)}]; ok {
			cc.items = append(cc.items, itemInline{name: name, args: args})
			return nil
		}
		addCall(name, args)
		return nil
	}
	if body == nil {
		return nil
	}
	return walk(body)
}

func validateCond(c parse.Term) error {
	name, args, err := goalFunctor(c)
	if err != nil {
		return err
	}
	switch {
	case name == "ground" && len(args) == 1:
		return nil
	case name == "indep" && len(args) == 2:
		return nil
	case name == "true" && len(args) == 0:
		return nil
	}
	return fmt.Errorf("CGE condition must be ground/1, indep/2 or true, got %v", c)
}

// flattenOp appends to out the operands of a chain of the binary
// operator op, left to right. It appends in place and loops down the
// right operand (the parser nests xfy chains such as a & b & c to the
// right), so a chain of n goals costs O(n) time and stack.
func flattenOp(out []parse.Term, t parse.Term, op string) []parse.Term {
	for {
		c, ok := t.(*parse.Compound)
		if !ok || c.Functor != op || c.Arity() != 2 {
			return append(out, t)
		}
		out = flattenOp(out, c.Args[0], op)
		t = c.Args[1]
	}
}

// analyze performs variable classification and register/slot assignment.
func (cc *clauseCtx) analyze() error {
	cc.vars = map[*parse.Var]*varInfo{}
	var order []*parse.Var
	var note func(t parse.Term, unit int, inCGE bool)
	note = func(t parse.Term, unit int, inCGE bool) {
		switch tt := t.(type) {
		case *parse.Var:
			vi := cc.vars[tt]
			if vi == nil {
				vi = &varInfo{v: tt, units: map[int]bool{}, xreg: -1, yslot: -1}
				cc.vars[tt] = vi
				order = append(order, tt)
			}
			vi.units[unit] = true
			vi.count++ // every occurrence counts (void detection)
			if inCGE {
				vi.inCGE = true
			}
		case *parse.Compound:
			for _, a := range tt.Args {
				note(a, unit, inCGE)
			}
		}
	}
	if cc.head != nil {
		note(cc.head, 0, false)
	}
	callUnits := 0
	for _, it := range cc.items {
		switch g := it.(type) {
		case itemCall:
			for _, a := range g.args {
				note(a, g.unit, false)
			}
			callUnits++
		case itemInline:
			// Inline goals belong to the unit of the next call; using
			// the current unit is equivalent for classification.
			for _, a := range g.args {
				note(a, callUnits, false)
			}
		case itemCGE:
			for _, c := range g.conds {
				note(c, g.unit, true)
			}
			for k, arm := range g.arms {
				for _, a := range arm.args {
					note(a, g.unit+k, true)
				}
			}
			callUnits += len(g.arms)
		}
	}

	// Permanency: multiple units, or any CGE involvement (CGE variables
	// are environment-resident so that the parallel and sequential
	// paths agree and parallel goals can reach them — the paper's
	// global "Envts./P. Vars." class), or query variables (answers are
	// read from the environment).
	maxArity := len(argsOf(cc.head))
	for _, it := range cc.items {
		switch g := it.(type) {
		case itemCall:
			if len(g.args) > maxArity {
				maxArity = len(g.args)
			}
		case itemInline:
			if len(g.args) > maxArity {
				maxArity = len(g.args)
			}
		case itemCGE:
			for _, arm := range g.arms {
				if len(arm.args) > maxArity {
					maxArity = len(arm.args)
				}
			}
		}
	}
	cc.tempBase = int16(maxArity)
	nextTemp := cc.tempBase
	for _, v := range order {
		vi := cc.vars[v]
		vi.perm = len(vi.units) > 1 || vi.inCGE || cc.query
		if vi.perm {
			vi.yslot = int16(cc.numY)
			cc.numY++
			if cc.query && v.Name != "_" {
				cc.queryVars = append(cc.queryVars, v.Name)
			}
		} else if vi.count > 1 {
			vi.xreg = nextTemp
			nextTemp++
		}
	}
	cc.scratchBase = nextTemp
	cc.scratch = nextTemp

	// Cut slot: needed when a cut appears beyond the first item.
	cc.cutSlot = -1
	for i, it := range cc.items {
		if _, ok := it.(itemCut); ok && i > 0 {
			cc.cutSlot = int16(cc.numY)
			cc.numY++
			break
		}
	}

	// Last-call optimization target (meta-call is excluded: BiCall
	// needs the environment alive to set its continuation).
	cc.lastCall = -1
	if !cc.query && len(cc.items) > 0 {
		if c, ok := cc.items[len(cc.items)-1].(itemCall); ok && !(c.name == "call" && len(c.args) == 1) {
			cc.lastCall = len(cc.items) - 1
		}
	}

	calls := 0
	for _, it := range cc.items {
		if _, ok := it.(itemCall); ok {
			calls++
		}
	}
	nonLCOCalls := calls
	if cc.lastCall >= 0 {
		nonLCOCalls--
	}
	cc.needEnv = cc.query || cc.numY > 0 || cc.cutSlot >= 0 || cc.hasCGE || nonLCOCalls > 0

	if int(cc.scratchBase) >= isa.NumRegs-8 {
		return fmt.Errorf("clause too large: %d registers needed", cc.scratchBase)
	}
	return nil
}

func argsOf(head parse.Term) []parse.Term {
	if c, ok := head.(*parse.Compound); ok {
		return c.Args
	}
	return nil
}

// freshScratch allocates a scratch register (reset per item), reusing
// released registers first. The free list and the mark discipline used
// by the body-side builders must not mix within one item; resetScratch
// between items keeps them apart.
func (cc *clauseCtx) freshScratch() (int16, error) {
	if n := len(cc.scratchFree); n > 0 {
		r := cc.scratchFree[n-1]
		cc.scratchFree = cc.scratchFree[:n-1]
		return r, nil
	}
	if int(cc.scratch) >= isa.NumRegs {
		return 0, fmt.Errorf("out of scratch registers")
	}
	r := cc.scratch
	cc.scratch++
	return r, nil
}

// releaseScratch recycles a register once its value has been consumed.
func (cc *clauseCtx) releaseScratch(r int16) {
	cc.scratchFree = append(cc.scratchFree, r)
}

func (cc *clauseCtx) resetScratch() {
	cc.scratch = cc.scratchBase
	cc.scratchFree = cc.scratchFree[:0]
}

// compile emits the full clause.
func (cc *clauseCtx) compile(body parse.Term) error {
	if err := cc.normalize(body); err != nil {
		return err
	}
	if err := cc.analyze(); err != nil {
		return err
	}
	if cc.needEnv {
		cc.e.emit(isa.Instr{Op: isa.OpAllocate, N: int32(cc.numY)})
		if cc.cutSlot >= 0 {
			cc.e.emit(isa.Instr{Op: isa.OpGetLevel, R1: cc.cutSlot})
		}
	}
	if err := cc.compileHead(); err != nil {
		return err
	}
	for i, it := range cc.items {
		cc.resetScratch()
		switch g := it.(type) {
		case itemCall:
			if err := cc.compileCall(g, i == cc.lastCall); err != nil {
				return err
			}
		case itemInline:
			if err := cc.compileInline(g); err != nil {
				return err
			}
		case itemCut:
			if i == 0 {
				cc.e.emit(isa.Instr{Op: isa.OpNeckCut})
			} else {
				cc.e.emit(isa.Instr{Op: isa.OpCutY, R1: cc.cutSlot})
			}
		case itemCGE:
			if err := cc.compileCGE(g); err != nil {
				return err
			}
		}
	}
	// Clause ending.
	switch {
	case cc.query:
		cc.e.emit(isa.Instr{Op: isa.OpStop})
	case cc.lastCall >= 0:
		// ending already emitted by compileCall (deallocate+execute)
	case cc.needEnv:
		cc.e.emit(isa.Instr{Op: isa.OpDeallocate})
		cc.e.emit(isa.Instr{Op: isa.OpProceed})
	default:
		cc.e.emit(isa.Instr{Op: isa.OpProceed})
	}
	return nil
}

// compileClause compiles one program clause.
func (e *emitter) compileClause(f isa.Functor, c clauseSrc) error {
	cc := &clauseCtx{e: e, functor: f, head: c.head}
	return cc.compile(c.body)
}

// compileQuery compiles the query as $query/0 ending in OpStop.
func (e *emitter) compileQuery(q parse.Term) (int32, []string, error) {
	entry := e.here()
	cc := &clauseCtx{e: e, functor: isa.Functor{Name: "$query"}, query: true}
	if err := cc.compile(q); err != nil {
		return 0, nil, fmt.Errorf("compile: query: %w", err)
	}
	return entry, cc.queryVars, nil
}
