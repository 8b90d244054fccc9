package lower

import (
	"strings"

	"rustprobe/internal/ast"
	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/resolve"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// convertTypeShim converts syntax types via the resolver's table.
func convertTypeShim(t ast.Type) types.Type { return resolve.ConvertType(t) }

// closureFuncDef wraps a closure as a standalone FuncDef for lowering.
func (b *builder) closureFuncDef(name string, e *ast.ClosureExpr) *hir.FuncDef {
	body, ok := e.Body.(*ast.BlockExpr)
	if !ok {
		body = &ast.BlockExpr{
			Stmts: []ast.Stmt{&ast.ExprStmt{X: e.Body, Semi: false, Sp: e.Body.Span()}},
			Sp:    e.Body.Span(),
		}
	}
	fd := &hir.FuncDef{
		Name:      name,
		Qualified: name,
		Ret:       types.UnknownType,
		Span:      e.Sp,
		Syntax: &ast.FnItem{
			Name: name,
			Decl: &ast.FnDecl{},
			Body: body,
			Sp:   e.Sp,
		},
	}
	for _, p := range e.Params {
		ty := types.Type(types.UnknownType)
		if p.Ty != nil {
			ty = resolve.ConvertType(p.Ty)
		}
		fd.Params = append(fd.Params, hir.ParamDef{Name: p.Name, Ty: ty, Pat: paramPat(p)})
	}
	return fd
}

func paramPat(p *ast.Param) ast.Pat {
	if p.Name == "" && p.Pat != nil {
		return p.Pat
	}
	return nil
}

// lowerBlock lowers a block and returns its tail value (nil for unit).
func (b *builder) lowerBlock(blk *ast.BlockExpr, _ bool) (mir.Operand, types.Type) {
	b.pushVarFrame()
	b.pushScope(scopeBlock)
	var tail mir.Operand
	var tailTy types.Type = types.UnitType
	for i, st := range blk.Stmts {
		if b.terminated {
			break
		}
		if es, ok := st.(*ast.ExprStmt); ok && !es.Semi && i == len(blk.Stmts)-1 {
			// Block tail value. Evaluate into a local of the *enclosing*
			// scope so it survives the block's drops.
			op, ty := b.lowerExpr(es.X)
			if op != nil && !isUnit(ty) {
				// Hoist: materialize into a temp owned by the parent
				// scope, after this block's drops run.
				tmp := b.hoistToParent(op, ty, es.Sp)
				tail, tailTy = tmp, ty
			} else {
				tail, tailTy = op, ty
			}
			break
		}
		b.lowerStmt(st)
	}
	b.popScopeEmit(blk.Sp)
	b.popVarFrame()
	return tail, tailTy
}

// hoistToParent stores op in a fresh temp registered one scope up, so block
// tail values survive the block's own drops.
func (b *builder) hoistToParent(op mir.Operand, ty types.Type, sp source.Span) mir.Operand {
	if b.terminated {
		return op
	}
	l := b.body.NewLocal("", ty, true, sp)
	b.emit(mir.StorageLive{Local: l.ID, Span: sp})
	// Register in the parent scope (skip the current block scope).
	if len(b.scopes) >= 2 {
		s := b.scopes[len(b.scopes)-2]
		s.locals = append(s.locals, l.ID)
	} else {
		s := b.scopes[len(b.scopes)-1]
		s.locals = append(s.locals, l.ID)
	}
	b.emit(mir.Assign{Place: mir.PlaceOf(l.ID), Rvalue: mir.Use{X: op}, Span: sp})
	return b.operandFor(mir.PlaceOf(l.ID), ty)
}

func (b *builder) lowerStmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.LetStmt:
		b.lowerLet(st)
	case *ast.ExprStmt:
		b.pushScope(scopeStmt)
		b.lowerExpr(st.X)
		b.popScopeEmit(st.Sp)
	case *ast.ItemStmt:
		// Nested items were already registered by resolve (top-level
		// collection does not descend into bodies; nested fns are rare in
		// the corpus and ignored).
	case *ast.EmptyStmt:
	}
}

func (b *builder) lowerLet(st *ast.LetStmt) {
	var declTy types.Type = types.UnknownType
	if st.Ty != nil {
		declTy = b.convertType(st.Ty)
	}
	if st.Init == nil {
		// Uninitialized let: allocate storage only.
		if bp, ok := st.Pat.(*ast.BindPat); ok {
			b.newNamed(bp.Name, declTy, st.Sp)
		}
		return
	}
	// Temporaries in the initializer die at the end of the let statement.
	b.pushScope(scopeStmt)
	op, ty := b.lowerExpr(st.Init)
	if st.Ty != nil {
		ty = declTy
	}
	if op == nil {
		op = mir.Const{Text: "()", Ty: types.UnitType}
	}
	// Bind the pattern against a local holding the value. For a plain
	// binding the local *is* the variable.
	switch pat := st.Pat.(type) {
	case *ast.BindPat:
		// Allocate the variable in the enclosing block scope, then pop the
		// statement temp scope.
		id := b.newNamed(pat.Name, ty, st.Sp)
		b.emit(mir.Assign{Place: mir.PlaceOf(id), Rvalue: mir.Use{X: op}, Span: st.Sp})
		b.popScopeEmit(st.Sp)
	case *ast.WildPat:
		// `let _ = x;` drops the value at the end of the statement: keep
		// it in the statement scope.
		if pl, ok := mir.OperandPlace(op); ok && types.NeedsDrop(ty) && mir.IsMove(op) {
			// Re-own into a temp so the drop is visible.
			tmp := b.newTemp(ty, st.Sp)
			b.moved[pl.Local] = true
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: st.Sp})
		}
		b.popScopeEmit(st.Sp)
	default:
		// Destructuring: store to a temp that lives in the enclosing
		// scope, then bind pattern names to projections.
		l := b.body.NewLocal("", ty, true, st.Sp)
		b.emit(mir.StorageLive{Local: l.ID, Span: st.Sp})
		for i := len(b.scopes) - 1; i >= 0; i-- {
			if b.scopes[i].kind != scopeStmt && b.scopes[i].kind != scopeTail {
				b.scopes[i].locals = append(b.scopes[i].locals, l.ID)
				break
			}
		}
		b.emit(mir.Assign{Place: mir.PlaceOf(l.ID), Rvalue: mir.Use{X: op}, Span: st.Sp})
		b.popScopeEmit(st.Sp)
		b.bindPattern(st.Pat, mir.PlaceOf(l.ID), ty, false)
	}
	if st.Else != nil {
		// let-else diverging block: lower for effects on a side path.
		cont := b.body.NewBlock()
		elseBlk := b.body.NewBlock()
		b.setTerm(mir.SwitchInt{
			Disc:      mir.Const{Text: "binds?", Ty: types.BoolType},
			Targets:   []mir.SwitchTarget{{Value: "true", Block: cont.ID}},
			Otherwise: elseBlk.ID,
			Span:      st.Sp,
		})
		b.startBlock(elseBlk)
		b.lowerBlock(st.Else, false)
		if !b.terminated {
			b.setTerm(mir.Unreachable{Span: st.Sp})
		}
		b.startBlock(cont)
	}
}

// bindPattern introduces pattern bindings as locals assigned from
// projections of place.
func (b *builder) bindPattern(pat ast.Pat, place mir.Place, ty types.Type, byRef bool) {
	switch pat := pat.(type) {
	case *ast.BindPat:
		bty := ty
		if byRef || pat.Ref {
			bty = types.RefTo(ty)
		}
		id := b.newNamed(pat.Name, bty, pat.Sp)
		var rv mir.Rvalue
		if byRef || pat.Ref {
			rv = mir.Ref{Place: place}
		} else {
			rv = mir.Use{X: b.operandFor(place, ty)}
		}
		b.emit(mir.Assign{Place: mir.PlaceOf(id), Rvalue: rv, Span: pat.Sp})
		if pat.Sub != nil {
			b.bindPattern(pat.Sub, place, ty, byRef)
		}
	case *ast.WildPat, *ast.PathPat, *ast.LitPat, *ast.RangePat:
	case *ast.TupleStructPat:
		payload := b.variantPayload(pat.Name(), ty)
		for i, sub := range pat.Elems {
			fname := tupleFieldName(i)
			fty := types.UnknownType
			if i < len(payload) {
				fty = payload[i]
			}
			b.bindPattern(sub, place.WithProj(mir.FieldProj{Name: fname, Ty: fty}), fty, byRef)
		}
	case *ast.StructPat:
		sd := b.prog.Structs[pat.Segments[len(pat.Segments)-1]]
		for _, f := range pat.Fields {
			fty := types.UnknownType
			if sd != nil {
				fty = sd.FieldType(f.Name)
			}
			b.bindPattern(f.Pat, place.WithProj(mir.FieldProj{Name: f.Name, Ty: fty}), fty, byRef)
		}
	case *ast.TuplePat:
		tup, _ := ty.(*types.Tuple)
		for i, sub := range pat.Elems {
			fty := types.UnknownType
			if tup != nil && i < len(tup.Elems) {
				fty = tup.Elems[i]
			}
			b.bindPattern(sub, place.WithProj(mir.FieldProj{Name: tupleFieldName(i), Ty: fty}), fty, byRef)
		}
	case *ast.RefPat:
		inner := types.Peel(ty)
		b.bindPattern(pat.Sub, place.WithProj(mir.DerefProj{}), inner, byRef)
	case *ast.OrPat:
		if len(pat.Alts) > 0 {
			b.bindPattern(pat.Alts[0], place, ty, byRef)
		}
	}
}

func tupleFieldName(i int) string {
	return [...]string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}[min(i, 9)]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// variantPayload returns the payload types of an enum variant pattern
// matched against a scrutinee of type ty.
func (b *builder) variantPayload(variant string, ty types.Type) []types.Type {
	base := types.PeelAll(ty)
	if n, ok := base.(*types.Named); ok {
		switch n.Name {
		case "Option":
			if variant == "Some" {
				return []types.Type{n.Arg(0)}
			}
			return nil
		case "Result", "LockResult", "TryLockResult":
			if variant == "Ok" {
				return []types.Type{n.Arg(0)}
			}
			if variant == "Err" {
				return []types.Type{n.Arg(1)}
			}
			return nil
		}
		if ed, ok := b.prog.Enums[n.Name]; ok {
			return ed.Variants[variant]
		}
	}
	if ed, ok := b.prog.VariantOwner[variant]; ok {
		return ed.Variants[variant]
	}
	return nil
}

func (b *builder) convertType(t ast.Type) types.Type {
	return convertTypeShim(t)
}

// --- expressions ------------------------------------------------------------

// lowerExpr lowers an expression for its value, returning an operand and
// its type. Unit-valued expressions may return a nil operand.
func (b *builder) lowerExpr(e ast.Expr) (mir.Operand, types.Type) {
	if b.terminated {
		return mir.Const{Text: "!", Ty: types.NeverType}, types.NeverType
	}
	switch e := e.(type) {
	case *ast.LitExpr:
		return b.lowerLit(e)
	case *ast.ParenExpr:
		return b.lowerExpr(e.X)
	case *ast.PathExpr:
		return b.lowerPathExpr(e)
	case *ast.UnaryExpr, *ast.FieldExpr, *ast.IndexExpr:
		pl, ty, ok := b.lowerPlace(e)
		if ok {
			return b.operandFor(pl, ty), ty
		}
		// Non-place unary (negation etc.).
		if ue, isU := e.(*ast.UnaryExpr); isU {
			op, ty := b.lowerExpr(ue.X)
			tmp := b.newTemp(ty, ue.Sp)
			opName := map[ast.UnOp]string{ast.UnNeg: "Neg", ast.UnNot: "Not", ast.UnDeref: "Deref"}[ue.Op]
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.UnaryOp{Op: opName, X: op}, Span: ue.Sp})
			return b.operandFor(mir.PlaceOf(tmp), ty), ty
		}
		return mir.Const{Text: "?", Ty: types.UnknownType}, types.UnknownType
	case *ast.BorrowExpr:
		pl, ty, ok := b.lowerPlace(e.X)
		if !ok {
			// Borrow of a temporary: materialize it first.
			op, vty := b.lowerExpr(e.X)
			tmp := b.newTemp(vty, e.Sp)
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: e.Sp})
			pl, ty = mir.PlaceOf(tmp), vty
		}
		refTy := types.Type(&types.Ref{Mut: e.Mut, Elem: ty})
		tmp := b.newTemp(refTy, e.Sp)
		b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Ref{Mut: e.Mut, Place: pl}, Span: e.Sp})
		return mir.Copy{Place: mir.PlaceOf(tmp)}, refTy
	case *ast.BinaryExpr:
		return b.lowerBinary(e)
	case *ast.AssignExpr:
		b.lowerAssign(e)
		return nil, types.UnitType
	case *ast.CastExpr:
		return b.lowerCast(e)
	case *ast.CallExpr:
		return b.lowerCall(e)
	case *ast.MethodCallExpr:
		return b.lowerMethodCall(e)
	case *ast.MacroCallExpr:
		return b.lowerMacro(e)
	case *ast.BlockExpr:
		return b.lowerBlock(e, e.Unsafety)
	case *ast.IfExpr:
		return b.lowerIf(e)
	case *ast.MatchExpr:
		return b.lowerMatch(e)
	case *ast.WhileExpr:
		b.lowerWhile(e)
		return nil, types.UnitType
	case *ast.LoopExpr:
		return b.lowerLoop(e)
	case *ast.ForExpr:
		b.lowerFor(e)
		return nil, types.UnitType
	case *ast.ReturnExpr:
		b.lowerReturn(e)
		return mir.Const{Text: "!", Ty: types.NeverType}, types.NeverType
	case *ast.BreakExpr:
		b.lowerBreak(e)
		return mir.Const{Text: "!", Ty: types.NeverType}, types.NeverType
	case *ast.ContinueExpr:
		b.lowerContinue(e)
		return mir.Const{Text: "!", Ty: types.NeverType}, types.NeverType
	case *ast.StructExpr:
		return b.lowerStructExpr(e)
	case *ast.TupleExpr:
		return b.lowerTupleExpr(e)
	case *ast.ArrayExpr:
		return b.lowerArrayExpr(e)
	case *ast.RangeExpr:
		var ops []mir.Operand
		if e.Lo != nil {
			op, _ := b.lowerExpr(e.Lo)
			ops = append(ops, op)
		}
		if e.Hi != nil {
			op, _ := b.lowerExpr(e.Hi)
			ops = append(ops, op)
		}
		ty := types.NamedOf("Range")
		tmp := b.newTemp(ty, e.Sp)
		b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{Kind: mir.AggStruct, Name: "Range", Ops: ops}, Span: e.Sp})
		return mir.Copy{Place: mir.PlaceOf(tmp)}, ty
	case *ast.ClosureExpr:
		return b.lowerClosure(e)
	case *ast.TryExpr:
		// `x?` forwards the success value; the early-return path is
		// modeled as an alternative exit without drops (see DESIGN.md).
		op, ty := b.lowerExpr(e.X)
		inner := unwrapResultish(ty)
		tmp := b.newTemp(inner, e.Sp)
		b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: e.Sp})
		return b.operandFor(mir.PlaceOf(tmp), inner), inner
	case *ast.AwaitExpr:
		return b.lowerExpr(e.X)
	default:
		return mir.Const{Text: "?", Ty: types.UnknownType}, types.UnknownType
	}
}

func unwrapResultish(t types.Type) types.Type {
	if n, ok := t.(*types.Named); ok {
		switch n.Name {
		case "Result", "Option", "LockResult", "TryLockResult":
			return n.Arg(0)
		}
	}
	return types.UnknownType
}

func (b *builder) lowerLit(e *ast.LitExpr) (mir.Operand, types.Type) {
	var ty types.Type
	switch e.Kind {
	case ast.LitInt:
		ty = types.I32Type
		if strings.Contains(e.Text, "usize") {
			ty = types.USizeType
		} else if strings.Contains(e.Text, "u8") {
			ty = types.U8Type
		}
	case ast.LitFloat:
		ty = types.F64Type
	case ast.LitBool:
		ty = types.BoolType
	case ast.LitStr:
		ty = types.RefTo(types.StrType)
	case ast.LitChar:
		ty = types.CharType
	case ast.LitByte:
		ty = types.U8Type
	case ast.LitByteStr:
		ty = types.RefTo(&types.Slice{Elem: types.U8Type})
	default:
		ty = types.UnknownType
	}
	return mir.Const{Text: e.Text, Ty: ty}, ty
}

// lowerPathExpr lowers a bare or qualified path in value position.
func (b *builder) lowerPathExpr(e *ast.PathExpr) (mir.Operand, types.Type) {
	if e.IsLocal() {
		name := e.Name()
		if id, ok := b.lookupVar(name); ok {
			ty := b.body.Local(id).Ty
			return b.operandFor(mir.PlaceOf(id), ty), ty
		}
		if sd, ok := b.prog.Statics[name]; ok {
			id := b.staticLocal(name, sd.Ty)
			return mir.Copy{Place: mir.PlaceOf(id)}, sd.Ty
		}
	}
	// Unit enum variants (None, a unit variant path).
	name := e.Name()
	if len(e.Segments) >= 2 {
		if ed, ok := b.prog.Enums[e.Segments[len(e.Segments)-2]]; ok {
			ty := types.NamedOf(ed.Name)
			return mir.Const{Text: strings.Join(e.Segments, "::"), Ty: ty}, ty
		}
	}
	if name == "None" {
		ty := types.NamedOf("Option", types.UnknownType)
		return mir.Const{Text: "None", Ty: ty}, ty
	}
	if ed, ok := b.prog.VariantOwner[name]; ok {
		ty := types.NamedOf(ed.Name)
		return mir.Const{Text: name, Ty: ty}, ty
	}
	if sd, ok := b.prog.Statics[name]; ok {
		id := b.staticLocal(name, sd.Ty)
		return mir.Copy{Place: mir.PlaceOf(id)}, sd.Ty
	}
	// Function item used as a value, or an unresolved path: constant.
	return mir.Const{Text: strings.Join(e.Segments, "::"), Ty: types.UnknownType}, types.UnknownType
}

// lowerPlace lowers an expression as an lvalue place when possible.
func (b *builder) lowerPlace(e ast.Expr) (mir.Place, types.Type, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.PathExpr:
		if e.IsLocal() {
			if id, ok := b.lookupVar(e.Name()); ok {
				return mir.PlaceOf(id), b.body.Local(id).Ty, true
			}
		}
		if sd, ok := b.prog.Statics[e.Name()]; ok {
			id := b.staticLocal(e.Name(), sd.Ty)
			return mir.PlaceOf(id), sd.Ty, true
		}
		return mir.Place{}, types.UnknownType, false
	case *ast.FieldExpr:
		base, bty, ok := b.lowerPlace(e.X)
		if !ok {
			// Field of an rvalue: materialize the base.
			op, vty := b.lowerExpr(e.X)
			tmp := b.newTemp(vty, e.Sp)
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: e.Sp})
			base, bty = mir.PlaceOf(tmp), vty
		}
		// Auto-deref through references for field access.
		for {
			if r, isRef := bty.(*types.Ref); isRef {
				base = base.WithProj(mir.DerefProj{})
				bty = r.Elem
				continue
			}
			break
		}
		fty := b.fieldType(bty, e.Name)
		return base.WithProj(mir.FieldProj{Name: e.Name, Ty: fty}), fty, true
	case *ast.IndexExpr:
		base, bty, ok := b.lowerPlace(e.X)
		if !ok {
			op, vty := b.lowerExpr(e.X)
			tmp := b.newTemp(vty, e.Sp)
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: e.Sp})
			base, bty = mir.PlaceOf(tmp), vty
		}
		b.pushScope(scopeStmt)
		b.lowerExpr(e.Index) // evaluate the index for effects
		b.popScopeEmit(e.Sp)
		elem := elemType(bty)
		return base.WithProj(mir.IndexProj{}), elem, true
	case *ast.UnaryExpr:
		if e.Op != ast.UnDeref {
			return mir.Place{}, types.UnknownType, false
		}
		base, bty, ok := b.lowerPlace(e.X)
		if !ok {
			op, vty := b.lowerExpr(e.X)
			tmp := b.newTemp(vty, e.Sp)
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: e.Sp})
			base, bty = mir.PlaceOf(tmp), vty
		}
		return base.WithProj(mir.DerefProj{}), types.Peel(bty), true
	default:
		return mir.Place{}, types.UnknownType, false
	}
}

func (b *builder) fieldType(base types.Type, field string) types.Type {
	base = types.PeelAll(base)
	switch base := base.(type) {
	case *types.Named:
		if sd, ok := b.prog.Structs[base.Name]; ok {
			return sd.FieldType(field)
		}
	case *types.Tuple:
		for i, e := range base.Elems {
			if tupleFieldName(i) == field {
				return e
			}
		}
	}
	return types.UnknownType
}

func elemType(t types.Type) types.Type {
	t = types.PeelAll(t)
	switch t := t.(type) {
	case *types.Slice:
		return t.Elem
	case *types.Array:
		return t.Elem
	case *types.Named:
		switch t.Name {
		case "Vec", "VecDeque":
			return t.Arg(0)
		case "HashMap", "BTreeMap":
			return t.Arg(1)
		}
	}
	return types.UnknownType
}

func (b *builder) lowerBinary(e *ast.BinaryExpr) (mir.Operand, types.Type) {
	lop, lty := b.lowerExpr(e.L)
	rop, _ := b.lowerExpr(e.R)
	var ty types.Type
	switch e.Op {
	case ast.BinEq, ast.BinNe, ast.BinLt, ast.BinLe, ast.BinGt, ast.BinGe, ast.BinAnd, ast.BinOr:
		ty = types.BoolType
	default:
		ty = lty
	}
	opNames := map[ast.BinOp]string{
		ast.BinAdd: "Add", ast.BinSub: "Sub", ast.BinMul: "Mul", ast.BinDiv: "Div",
		ast.BinRem: "Rem", ast.BinAnd: "And", ast.BinOr: "Or", ast.BinBitAnd: "BitAnd",
		ast.BinBitOr: "BitOr", ast.BinBitXor: "BitXor", ast.BinShl: "Shl", ast.BinShr: "Shr",
		ast.BinEq: "Eq", ast.BinNe: "Ne", ast.BinLt: "Lt", ast.BinLe: "Le",
		ast.BinGt: "Gt", ast.BinGe: "Ge",
	}
	tmp := b.newTemp(ty, e.Sp)
	b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.BinaryOp{Op: opNames[e.Op], L: lop, R: rop}, Span: e.Sp})
	return mir.Copy{Place: mir.PlaceOf(tmp)}, ty
}

func (b *builder) lowerAssign(e *ast.AssignExpr) {
	// Evaluate RHS first (Rust evaluates LHS place first, but the
	// difference is immaterial to our analyses).
	op, _ := b.lowerExpr(e.R)
	pl, _, ok := b.lowerPlace(e.L)
	if !ok {
		return
	}
	if e.Op != nil {
		b.emit(mir.Assign{Place: pl, Rvalue: mir.BinaryOp{Op: "Compound", L: mir.Copy{Place: pl}, R: op}, Span: e.Sp})
		return
	}
	// A fresh assignment un-moves the destination local.
	if pl.IsLocal() {
		delete(b.moved, pl.Local)
	}
	b.emit(mir.Assign{Place: pl, Rvalue: mir.Use{X: op}, Span: e.Sp})
}

func (b *builder) lowerCast(e *ast.CastExpr) (mir.Operand, types.Type) {
	to := b.convertType(e.Ty)
	// `&x as *const T` / `ptr as *mut T`: keep the place association so
	// points-to survives the cast chain.
	if be, ok := ast.Unparen(e.X).(*ast.BorrowExpr); ok {
		if _, isPtr := to.(*types.RawPtr); isPtr {
			pl, _, okp := b.lowerPlace(be.X)
			if okp {
				mut := false
				if rp, isRaw := to.(*types.RawPtr); isRaw {
					mut = rp.Mut
				}
				tmp := b.newTemp(to, e.Sp)
				b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.AddrOf{Mut: mut, Place: pl}, Span: e.Sp})
				return mir.Copy{Place: mir.PlaceOf(tmp)}, to
			}
		}
	}
	op, _ := b.lowerExpr(e.X)
	tmp := b.newTemp(to, e.Sp)
	b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Cast{X: op, To: to}, Span: e.Sp})
	return b.operandFor(mir.PlaceOf(tmp), to), to
}

func (b *builder) lowerStructExpr(e *ast.StructExpr) (mir.Operand, types.Type) {
	name := e.Name()
	if name == "Self" && b.fd.SelfType != "" {
		name = b.fd.SelfType
	}
	// Enum variant struct literal `Enum::Variant { .. }`.
	aggName := name
	kind := mir.AggStruct
	if len(e.Segments) >= 2 {
		if _, isEnum := b.prog.Enums[e.Segments[len(e.Segments)-2]]; isEnum {
			kind = mir.AggVariant
			aggName = e.Segments[len(e.Segments)-2] + "::" + name
			name = e.Segments[len(e.Segments)-2]
		}
	}
	var fields []string
	var ops []mir.Operand
	for _, f := range e.Fields {
		op, _ := b.lowerExpr(f.Value)
		fields = append(fields, f.Name)
		ops = append(ops, op)
	}
	if e.Base != nil {
		op, _ := b.lowerExpr(e.Base)
		fields = append(fields, "..")
		ops = append(ops, op)
	}
	ty := types.Type(types.NamedOf(name))
	tmp := b.newTemp(ty, e.Sp)
	b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{Kind: kind, Name: aggName, Fields: fields, Ops: ops}, Span: e.Sp})
	return b.operandFor(mir.PlaceOf(tmp), ty), ty
}

func (b *builder) lowerTupleExpr(e *ast.TupleExpr) (mir.Operand, types.Type) {
	if len(e.Elems) == 0 {
		return mir.Const{Text: "()", Ty: types.UnitType}, types.UnitType
	}
	var ops []mir.Operand
	var tys []types.Type
	for _, el := range e.Elems {
		op, ty := b.lowerExpr(el)
		ops = append(ops, op)
		tys = append(tys, ty)
	}
	ty := types.Type(&types.Tuple{Elems: tys})
	tmp := b.newTemp(ty, e.Sp)
	b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{Kind: mir.AggTuple, Ops: ops}, Span: e.Sp})
	return b.operandFor(mir.PlaceOf(tmp), ty), ty
}

func (b *builder) lowerArrayExpr(e *ast.ArrayExpr) (mir.Operand, types.Type) {
	var ops []mir.Operand
	var elemTy types.Type = types.UnknownType
	for _, el := range e.Elems {
		op, ty := b.lowerExpr(el)
		ops = append(ops, op)
		elemTy = ty
	}
	if e.Repeat != nil {
		b.lowerExpr(e.Repeat)
	}
	ty := types.Type(&types.Array{Elem: elemTy, Len: len(e.Elems)})
	tmp := b.newTemp(ty, e.Sp)
	b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{Kind: mir.AggArray, Ops: ops}, Span: e.Sp})
	return b.operandFor(mir.PlaceOf(tmp), ty), ty
}

func (b *builder) lowerClosure(e *ast.ClosureExpr) (mir.Operand, types.Type) {
	// Lower the closure body as a standalone pseudo-function so detectors
	// see inside it.
	name := b.closureName()
	fd := b.closureFuncDef(name, e)
	// Captured variables become trailing pseudo-parameters: names inside
	// the closure body resolve to real locals, and inter-procedural
	// analyses translate capture-rooted paths like ordinary arguments.
	// The closure aggregate carries one operand per capture (a move for
	// `move` closures, matching Rust ownership transfer into the closure
	// environment).
	captures := b.freeVars(e)
	var ops []mir.Operand
	for _, cap := range captures {
		id, _ := b.lookupVar(cap)
		l := b.body.Local(id)
		fd.Params = append(fd.Params, hir.ParamDef{Name: cap, Ty: l.Ty})
		if e.Move {
			ops = append(ops, b.operandFor(mir.PlaceOf(id), l.Ty))
		} else {
			ops = append(ops, mir.Copy{Place: mir.PlaceOf(id)})
		}
	}
	sub := newBuilder(b.prog, b.diags, fd, b.out)
	cbody := sub.lowerFn()
	cbody.Captures = captures
	capSet := map[string]bool{}
	for _, c := range captures {
		capSet[c] = true
	}
	for i := 1; i <= cbody.ArgCount && i < len(cbody.Locals); i++ {
		if capSet[cbody.Locals[i].Name] {
			cbody.Locals[i].IsCapture = true
		}
	}
	b.out[name] = cbody
	ty := types.NamedOf("Closure")
	tmp := b.newTemp(ty, e.Sp)
	b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{Kind: mir.AggClosure, Name: name, Ops: ops}, Span: e.Sp})
	return b.operandFor(mir.PlaceOf(tmp), ty), ty
}

// freeVars returns the closure's free variables: single-segment paths used
// in its body that are not bound by its parameters or by any pattern inside
// it, yet resolve to a variable of the enclosing function. Order is first
// use, so capture lists are deterministic.
func (b *builder) freeVars(e *ast.ClosureExpr) []string {
	bound := map[string]bool{}
	for _, p := range e.Params {
		if p.Name != "" {
			bound[p.Name] = true
		}
		if p.Pat != nil {
			ast.Inspect(p.Pat, func(n ast.Node) {
				if bp, ok := n.(*ast.BindPat); ok {
					bound[bp.Name] = true
				}
			})
		}
	}
	ast.Inspect(e.Body, func(n ast.Node) {
		if bp, ok := n.(*ast.BindPat); ok {
			bound[bp.Name] = true
		}
	})
	var names []string
	seen := map[string]bool{}
	ast.Inspect(e.Body, func(n ast.Node) {
		pe, ok := n.(*ast.PathExpr)
		if !ok || !pe.IsLocal() {
			return
		}
		name := pe.Name()
		if name == "" || bound[name] || seen[name] {
			return
		}
		if _, ok := b.lookupVar(name); !ok {
			return
		}
		seen[name] = true
		names = append(names, name)
	})
	return names
}
