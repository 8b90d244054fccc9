package lower

import (
	"strings"

	"rustprobe/internal/ast"
	"rustprobe/internal/hir"
	"rustprobe/internal/mir"
	"rustprobe/internal/source"
	"rustprobe/internal/types"
)

// exprPath renders a receiver expression as a stable source-level path
// ("client", "self.proposed", "(*ptr).field") used as lock identity by the
// double-lock detector; it returns "" for receivers that are not simple
// paths.
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.PathExpr:
		return strings.Join(e.Segments, "::")
	case *ast.FieldExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Name
	case *ast.UnaryExpr:
		if e.Op == ast.UnDeref {
			return exprPath(e.X)
		}
	case *ast.BorrowExpr:
		return exprPath(e.X)
	case *ast.MethodCallExpr:
		// client.inner().lock(): identity includes the accessor chain.
		base := exprPath(e.Recv)
		if base == "" {
			return ""
		}
		return base + "." + e.Name + "()"
	case *ast.IndexExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "[]"
	}
	return ""
}

// emitCall appends a Call terminator writing to a fresh temp and continues
// in a new block; it returns the destination operand.
func (b *builder) emitCall(callee string, def *hir.FuncDef, intr mir.Intrinsic, args []mir.Operand, retTy types.Type, recvPath string, sp source.Span) (mir.Operand, types.Type) {
	dest := b.newTemp(retTy, sp)
	next := b.body.NewBlock()
	b.setTerm(mir.Call{
		Callee:    callee,
		Def:       def,
		Intrinsic: intr,
		Args:      args,
		Dest:      mir.PlaceOf(dest),
		Target:    next.ID,
		Span:      sp,
		RecvPath:  recvPath,
	})
	b.startBlock(next)
	return b.operandFor(mir.PlaceOf(dest), retTy), retTy
}

// lowerCall lowers free-function and path calls: user functions, enum
// variant constructors, and modeled std functions.
func (b *builder) lowerCall(e *ast.CallExpr) (mir.Operand, types.Type) {
	pe, isPath := ast.Unparen(e.Fn).(*ast.PathExpr)
	if !isPath {
		// Calling a closure or fn-pointer value.
		b.lowerExpr(e.Fn)
		args := b.lowerArgs(e.Args)
		return b.emitCall("<indirect>", nil, mir.IntrinsicNone, args, types.UnknownType, "", e.Sp)
	}
	name := pe.Name()

	// Enum variant constructors: Some(x), Ok(x), Err(x), user variants.
	if ctor, ok := b.variantCtor(pe, e.Args); ok {
		return ctor()
	}

	// Struct tuple constructors: Pair(1, s).
	if sd, ok := b.prog.Structs[name]; ok && sd.IsTuple {
		args := b.lowerArgs(e.Args)
		ty := types.Type(types.NamedOf(name))
		tmp := b.newTemp(ty, e.Sp)
		b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{Kind: mir.AggStruct, Name: name, Ops: args}, Span: e.Sp})
		return b.operandFor(mir.PlaceOf(tmp), ty), ty
	}

	qual := strings.Join(pe.Segments, "::")
	short := qual
	if len(pe.Segments) >= 2 {
		short = pe.Segments[len(pe.Segments)-2] + "::" + name
	}

	// mem::drop / drop: an explicit Drop terminator — the §6.1 fix idiom.
	if short == "mem::drop" || (qual == "drop" && len(e.Args) == 1) {
		return b.lowerExplicitDrop(e)
	}
	// mem::forget: suppress the drop without running it.
	if short == "mem::forget" || qual == "forget" {
		if len(e.Args) == 1 {
			op, _ := b.lowerExpr(e.Args[0])
			if pl, ok := mir.OperandPlace(op); ok {
				b.markMoved(pl)
			}
		}
		return nil, types.UnitType
	}

	// Known std constructors and functions.
	if intr, retFn, ok := stdFunction(short, qual); ok {
		args := b.lowerArgs(e.Args)
		genArg := types.Type(types.UnknownType)
		if len(pe.Generics) == 1 {
			genArg = b.convertType(pe.Generics[0])
		}
		ret := retFn(b, args, genArg)
		return b.emitCall(short, nil, intr, args, ret, exprPath(argExpr(e.Args, 0)), e.Sp)
	}

	// User function.
	if def, ok := b.prog.Funcs[qual]; ok {
		args := b.lowerArgs(e.Args)
		return b.emitCall(qual, def, mir.IntrinsicNone, args, def.Ret, "", e.Sp)
	}
	if def, ok := b.prog.Funcs[short]; ok {
		args := b.lowerArgs(e.Args)
		return b.emitCall(short, def, mir.IntrinsicNone, args, def.Ret, "", e.Sp)
	}
	if def, ok := b.prog.Funcs[name]; ok {
		args := b.lowerArgs(e.Args)
		return b.emitCall(name, def, mir.IntrinsicNone, args, def.Ret, "", e.Sp)
	}

	// Unknown external function.
	args := b.lowerArgs(e.Args)
	return b.emitCall(qual, nil, mir.IntrinsicNone, args, types.UnknownType, "", e.Sp)
}

func argExpr(args []ast.Expr, i int) ast.Expr {
	if i < len(args) {
		return args[i]
	}
	return nil
}

func (b *builder) lowerArgs(args []ast.Expr) []mir.Operand {
	var out []mir.Operand
	for _, a := range args {
		op, _ := b.lowerExpr(a)
		if op == nil {
			op = mir.Const{Text: "()", Ty: types.UnitType}
		}
		out = append(out, op)
	}
	return out
}

// variantCtor recognizes enum variant constructor calls.
func (b *builder) variantCtor(pe *ast.PathExpr, argExprs []ast.Expr) (func() (mir.Operand, types.Type), bool) {
	name := pe.Name()
	build := func(enumName, variant string, resTy func([]types.Type) types.Type) func() (mir.Operand, types.Type) {
		return func() (mir.Operand, types.Type) {
			var ops []mir.Operand
			var tys []types.Type
			for _, a := range argExprs {
				op, ty := b.lowerExpr(a)
				ops = append(ops, op)
				tys = append(tys, ty)
			}
			ty := resTy(tys)
			tmp := b.newTemp(ty, pe.Sp)
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Aggregate{
				Kind: mir.AggVariant, Name: enumName + "::" + variant, Ops: ops,
			}, Span: pe.Sp})
			return b.operandFor(mir.PlaceOf(tmp), ty), ty
		}
	}
	first := func(tys []types.Type) types.Type {
		if len(tys) > 0 {
			return tys[0]
		}
		return types.UnknownType
	}
	switch name {
	case "Some":
		return build("Option", "Some", func(tys []types.Type) types.Type {
			return types.NamedOf("Option", first(tys))
		}), true
	case "Ok":
		return build("Result", "Ok", func(tys []types.Type) types.Type {
			return types.NamedOf("Result", first(tys), types.UnknownType)
		}), true
	case "Err":
		return build("Result", "Err", func(tys []types.Type) types.Type {
			return types.NamedOf("Result", types.UnknownType, first(tys))
		}), true
	}
	if ed, ok := b.prog.VariantOwner[name]; ok {
		// Qualified form Enum::Variant or bare Variant.
		if len(pe.Segments) == 1 || (len(pe.Segments) >= 2 && pe.Segments[len(pe.Segments)-2] == ed.Name) {
			return build(ed.Name, name, func([]types.Type) types.Type {
				return types.NamedOf(ed.Name)
			}), true
		}
	}
	return nil, false
}

// lowerExplicitDrop lowers `drop(x)` / `mem::drop(x)` to a Drop terminator.
func (b *builder) lowerExplicitDrop(e *ast.CallExpr) (mir.Operand, types.Type) {
	if len(e.Args) != 1 {
		return nil, types.UnitType
	}
	op, ty := b.lowerExpr(e.Args[0])
	pl, ok := mir.OperandPlace(op)
	if !ok {
		return nil, types.UnitType
	}
	// The value moves into drop(): its scope-end drop is suppressed and
	// the destructor runs here instead.
	b.markMoved(pl)
	if !types.NeedsDrop(ty) {
		return nil, types.UnitType
	}
	next := b.body.NewBlock()
	b.setTerm(mir.Drop{Place: pl, Target: next.ID, Span: e.Sp})
	b.startBlock(next)
	return nil, types.UnitType
}

// retFn computes a modeled std function's return type from its lowered
// arguments and an optional explicit generic argument.
type retFn func(b *builder, args []mir.Operand, genArg types.Type) types.Type

func retConst(t types.Type) retFn {
	return func(*builder, []mir.Operand, types.Type) types.Type { return t }
}

func retWrap(name string) retFn {
	return func(b *builder, args []mir.Operand, _ types.Type) types.Type {
		inner := types.Type(types.UnknownType)
		if len(args) > 0 {
			inner = b.operandType(args[0])
		}
		return types.NamedOf(name, inner)
	}
}

// operandType recovers the type of an operand.
func (b *builder) operandType(op mir.Operand) types.Type {
	switch op := op.(type) {
	case mir.Copy:
		return b.placeType(op.Place)
	case mir.Move:
		return b.placeType(op.Place)
	case mir.Const:
		return op.Ty
	}
	return types.UnknownType
}

// placeType computes the type of a place by walking projections.
func (b *builder) placeType(p mir.Place) types.Type {
	t := b.body.Local(p.Local).Ty
	for _, pr := range p.Proj {
		switch pr := pr.(type) {
		case mir.DerefProj:
			t = derefOnce(t)
		case mir.FieldProj:
			if pr.Ty != nil {
				t = pr.Ty
			} else {
				t = b.fieldType(t, pr.Name)
			}
		case mir.IndexProj:
			t = elemType(t)
		}
	}
	return t
}

// derefOnce peels one pointer/smart-pointer layer.
func derefOnce(t types.Type) types.Type {
	switch t := t.(type) {
	case *types.Ref:
		return t.Elem
	case *types.RawPtr:
		return t.Elem
	case *types.Named:
		switch t.Name {
		case "Box", "Arc", "Rc", "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard", "Ref", "RefMut":
			return t.Arg(0)
		}
	}
	return types.UnknownType
}

// stdFunction models well-known free/associated std functions.
func stdFunction(short, qual string) (mir.Intrinsic, retFn, bool) {
	switch short {
	case "Box::new":
		return mir.IntrinsicBoxNew, retWrap("Box"), true
	case "Arc::new":
		return mir.IntrinsicBoxNew, retWrap("Arc"), true
	case "Rc::new":
		return mir.IntrinsicBoxNew, retWrap("Rc"), true
	case "Mutex::new":
		return mir.IntrinsicBoxNew, retWrap("Mutex"), true
	case "RwLock::new":
		return mir.IntrinsicBoxNew, retWrap("RwLock"), true
	case "RefCell::new":
		return mir.IntrinsicBoxNew, retWrap("RefCell"), true
	case "Cell::new":
		return mir.IntrinsicBoxNew, retWrap("Cell"), true
	case "Vec::new", "Vec::with_capacity":
		return mir.IntrinsicBoxNew, retConst(types.NamedOf("Vec", types.UnknownType)), true
	case "String::new", "String::from", "String::from_utf8_unchecked":
		return mir.IntrinsicBoxNew, retConst(types.NamedOf("String")), true
	case "Arc::clone", "Rc::clone":
		return mir.IntrinsicArcClone, func(b *builder, args []mir.Operand, _ types.Type) types.Type {
			if len(args) > 0 {
				return types.Peel(b.operandType(args[0]))
			}
			return types.UnknownType
		}, true
	case "ptr::read":
		return mir.IntrinsicPtrRead, func(b *builder, args []mir.Operand, gen types.Type) types.Type {
			if _, unknown := gen.(*types.Unknown); !unknown {
				return gen
			}
			if len(args) > 0 {
				return derefOnce(b.operandType(args[0]))
			}
			return types.UnknownType
		}, true
	case "ptr::write", "ptr::copy", "ptr::copy_nonoverlapping":
		return mir.IntrinsicPtrWrite, retConst(types.UnitType), true
	case "ptr::null", "ptr::null_mut":
		mut := short == "ptr::null_mut"
		return mir.IntrinsicNone, retConst(&types.RawPtr{Mut: mut, Elem: types.UnknownType}), true
	case "Box::into_raw", "Arc::into_raw", "CString::into_raw":
		return mir.IntrinsicIntoRaw, func(b *builder, args []mir.Operand, _ types.Type) types.Type {
			inner := types.Type(types.UnknownType)
			if len(args) > 0 {
				inner = derefOnce(b.operandType(args[0]))
			}
			return &types.RawPtr{Mut: true, Elem: inner}
		}, true
	case "Box::from_raw", "Arc::from_raw", "CString::from_raw":
		owner := strings.SplitN(short, "::", 2)[0]
		return mir.IntrinsicFromRaw, func(b *builder, args []mir.Operand, _ types.Type) types.Type {
			inner := types.Type(types.UnknownType)
			if len(args) > 0 {
				inner = derefOnce(b.operandType(args[0]))
			}
			return types.NamedOf(owner, inner)
		}, true
	case "Vec::from_raw_parts":
		return mir.IntrinsicFromRaw, retConst(types.NamedOf("Vec", types.UnknownType)), true
	case "mem::transmute":
		return mir.IntrinsicTransmute, func(_ *builder, _ []mir.Operand, gen types.Type) types.Type { return gen }, true
	case "mem::uninitialized", "MaybeUninit::uninit":
		return mir.IntrinsicAlloc, func(_ *builder, _ []mir.Operand, gen types.Type) types.Type { return gen }, true
	case "thread::spawn":
		return mir.IntrinsicSpawn, retConst(types.NamedOf("JoinHandle", types.UnknownType)), true
	case "mem::size_of", "size_of":
		return mir.IntrinsicNone, retConst(types.USizeType), true
	}
	if mir.IsChannelCtor(short) {
		return mir.IntrinsicNone, retConst(&types.Tuple{Elems: []types.Type{
			types.NamedOf("Sender", types.UnknownType),
			types.NamedOf("Receiver", types.UnknownType),
		}}), true
	}
	switch qual {
	case "alloc":
		return mir.IntrinsicAlloc, retConst(&types.RawPtr{Mut: true, Elem: types.UnknownType}), true
	case "dealloc", "free":
		return mir.IntrinsicDealloc, retConst(types.UnitType), true
	}
	return mir.IntrinsicNone, nil, false
}

// lowerMethodCall lowers `recv.m(args)` including the modeled std methods
// that matter to the detectors (lock/read/write, unwrap, clone, as_ptr,
// get_unchecked, Condvar::wait, channel ops).
func (b *builder) lowerMethodCall(e *ast.MethodCallExpr) (mir.Operand, types.Type) {
	recvPath := exprPath(e.Recv)

	// as_ptr/as_mut_ptr: a pointer *into* the receiver's storage — lower
	// as AddrOf so points-to ties the pointer to the receiver place, which
	// is what makes Figure 7's UAF detectable.
	if e.Name == "as_ptr" || e.Name == "as_mut_ptr" {
		pl, pty, ok := b.lowerPlace(e.Recv)
		if !ok {
			op, vty := b.lowerExpr(e.Recv)
			tmp := b.newTemp(vty, e.Sp)
			b.emit(mir.Assign{Place: mir.PlaceOf(tmp), Rvalue: mir.Use{X: op}, Span: e.Sp})
			pl, pty = mir.PlaceOf(tmp), vty
		}
		mut := e.Name == "as_mut_ptr"
		ptrTy := types.Type(&types.RawPtr{Mut: mut, Elem: types.PeelAll(pty)})
		dest := b.newTemp(ptrTy, e.Sp)
		b.emit(mir.Assign{Place: mir.PlaceOf(dest), Rvalue: mir.AddrOf{Mut: mut, Place: pl}, Span: e.Sp})
		return mir.Copy{Place: mir.PlaceOf(dest)}, ptrTy
	}

	// Evaluate the receiver. Methods taking &self keep the receiver place
	// alive; we lower the receiver as a place when possible so projections
	// and points-to stay precise.
	var recvOp mir.Operand
	var recvTy types.Type
	if pl, pty, ok := b.lowerPlace(e.Recv); ok {
		recvTy = pty
		recvOp = mir.Copy{Place: pl} // borrow-like use; move decided below
	} else {
		recvOp, recvTy = b.lowerExpr(e.Recv)
	}

	base := autoDeref(recvTy)
	baseName := ""
	if n, ok := base.(*types.Named); ok {
		baseName = n.Name
	}

	// Modeled std methods.
	if intr, ret, handled := b.stdMethod(e.Name, base, baseName, recvOp); handled {
		args := append([]mir.Operand{recvOp}, b.lowerArgs(e.Args)...)
		callee := baseName + "::" + e.Name
		if baseName == "" {
			callee = e.Name
		}
		// A by-value consuming method moves the receiver.
		if consumesReceiver(e.Name) {
			if pl, ok := mir.OperandPlace(recvOp); ok && !types.IsCopy(recvTy) {
				b.markMoved(pl)
				args[0] = mir.Move{Place: pl}
			}
		}
		return b.emitCall(callee, nil, intr, args, ret, recvPath, e.Sp)
	}

	// User-defined method.
	if def := b.lookupUserMethod(base, e.Name); def != nil {
		args := append([]mir.Operand{recvOp}, b.lowerArgs(e.Args)...)
		if def.SelfKind == ast.SelfValue {
			if pl, ok := mir.OperandPlace(recvOp); ok && !types.IsCopy(recvTy) {
				b.markMoved(pl)
				args[0] = mir.Move{Place: pl}
			}
		}
		ret := instantiateRet(def.Ret, base)
		return b.emitCall(def.Qualified, def, mir.IntrinsicNone, args, ret, recvPath, e.Sp)
	}

	// Unknown method.
	args := append([]mir.Operand{recvOp}, b.lowerArgs(e.Args)...)
	callee := e.Name
	if baseName != "" {
		callee = baseName + "::" + e.Name
	}
	return b.emitCall(callee, nil, mir.IntrinsicNone, args, types.UnknownType, recvPath, e.Sp)
}

// instantiateRet substitutes the receiver's single type argument for a bare
// generic parameter name in the return type (Queue<T>::pop -> Option<T>).
func instantiateRet(ret types.Type, base types.Type) types.Type {
	bn, ok := base.(*types.Named)
	if !ok || len(bn.Args) != 1 {
		return ret
	}
	arg := bn.Args[0]
	var subst func(types.Type) types.Type
	subst = func(t types.Type) types.Type {
		switch t := t.(type) {
		case *types.Named:
			if len(t.Args) == 0 && len(t.Name) == 1 && t.Name[0] >= 'A' && t.Name[0] <= 'Z' {
				return arg
			}
			args := make([]types.Type, len(t.Args))
			for i, a := range t.Args {
				args[i] = subst(a)
			}
			return &types.Named{Name: t.Name, Args: args}
		case *types.Ref:
			return &types.Ref{Mut: t.Mut, Elem: subst(t.Elem)}
		case *types.RawPtr:
			return &types.RawPtr{Mut: t.Mut, Elem: subst(t.Elem)}
		default:
			return t
		}
	}
	return subst(ret)
}

// autoDeref peels references and deref-coercing smart pointers to find the
// method-receiver base type, as rustc's autoderef does.
func autoDeref(t types.Type) types.Type {
	for i := 0; i < 8; i++ {
		switch tt := t.(type) {
		case *types.Ref:
			t = tt.Elem
		case *types.RawPtr:
			t = tt.Elem
		case *types.Named:
			switch tt.Name {
			case "Arc", "Rc", "Box", "MutexGuard", "RwLockReadGuard", "RwLockWriteGuard", "Ref", "RefMut":
				// Deref only when it exposes a locking/base type; keep
				// guards and containers as base when the inner type is
				// unknown.
				inner := tt.Arg(0)
				if _, unknown := inner.(*types.Unknown); unknown {
					return tt
				}
				t = inner
			default:
				return tt
			}
		default:
			return t
		}
	}
	return t
}

func consumesReceiver(method string) bool {
	switch method {
	case "unwrap", "expect", "into_iter", "into", "join", "to_owned", "take", "into_inner":
		return true
	}
	return false
}

// stdMethod models method intrinsics; handled reports recognition.
func (b *builder) stdMethod(name string, base types.Type, baseName string, recvOp mir.Operand) (mir.Intrinsic, types.Type, bool) {
	bn, _ := base.(*types.Named)
	argOf := func(i int) types.Type {
		if bn != nil {
			return bn.Arg(i)
		}
		return types.UnknownType
	}
	switch name {
	case "lock":
		if baseName == "Mutex" || baseName == "" {
			return mir.IntrinsicLock, types.NamedOf("MutexGuard", argOf(0)), true
		}
	case "read":
		if baseName == "RwLock" {
			return mir.IntrinsicRead, types.NamedOf("RwLockReadGuard", argOf(0)), true
		}
	case "write":
		if baseName == "RwLock" {
			return mir.IntrinsicWrite, types.NamedOf("RwLockWriteGuard", argOf(0)), true
		}
	case "try_lock":
		if baseName == "Mutex" || baseName == "" {
			return mir.IntrinsicTryLock, types.NamedOf("TryLockResult", types.NamedOf("MutexGuard", argOf(0))), true
		}
	case "try_read":
		if baseName == "RwLock" {
			return mir.IntrinsicTryLock, types.NamedOf("TryLockResult", types.NamedOf("RwLockReadGuard", argOf(0))), true
		}
	case "try_write":
		if baseName == "RwLock" {
			return mir.IntrinsicTryLock, types.NamedOf("TryLockResult", types.NamedOf("RwLockWriteGuard", argOf(0))), true
		}
	case "borrow":
		if baseName == "RefCell" {
			return mir.IntrinsicLock, types.NamedOf("Ref", argOf(0)), true
		}
	case "borrow_mut":
		if baseName == "RefCell" {
			return mir.IntrinsicLock, types.NamedOf("RefMut", argOf(0)), true
		}
	case "unwrap", "expect":
		ty := b.operandType(recvOp)
		inner := unwrapResultish(ty)
		if _, unknown := inner.(*types.Unknown); unknown {
			// unwrap on a non-Result/Option (e.g. a guard from our lock
			// model): forward the receiver type unchanged.
			inner = ty
		}
		return mir.IntrinsicUnwrap, inner, true
	case "clone":
		ty := b.operandType(recvOp)
		peeled := types.Peel(ty)
		if n, ok := peeled.(*types.Named); ok && (n.Name == "Arc" || n.Name == "Rc") {
			return mir.IntrinsicArcClone, peeled, true
		}
		return mir.IntrinsicClone, peeled, true
	case "wait":
		if baseName == "Condvar" {
			return mir.IntrinsicCondvarWait, types.UnknownType, true
		}
	case "notify_one", "notify_all":
		if baseName == "Condvar" || baseName == "" {
			return mir.IntrinsicNone, types.UnitType, true
		}
	case "send":
		if baseName == "Sender" || baseName == "SyncSender" {
			return mir.IntrinsicChanSend, types.NamedOf("Result", types.UnitType, types.UnknownType), true
		}
	case "recv":
		if baseName == "Receiver" {
			return mir.IntrinsicChanRecv, types.NamedOf("Result", argOf(0), types.UnknownType), true
		}
	case "get_unchecked", "get_unchecked_mut":
		return mir.IntrinsicGetUnchecked, types.RefTo(elemType(base)), true
	case "spawn":
		if baseName == "Builder" || baseName == "ThreadPool" {
			return mir.IntrinsicSpawn, types.UnknownType, true
		}
	case "load":
		if strings.HasPrefix(baseName, "Atomic") {
			return mir.IntrinsicNone, atomicValueType(baseName), true
		}
	case "store", "fetch_add", "fetch_sub":
		if strings.HasPrefix(baseName, "Atomic") {
			return mir.IntrinsicNone, atomicValueType(baseName), true
		}
	case "compare_and_swap", "compare_exchange", "swap":
		if strings.HasPrefix(baseName, "Atomic") {
			return mir.IntrinsicNone, atomicValueType(baseName), true
		}
	case "len", "capacity":
		return mir.IntrinsicNone, types.USizeType, true
	case "is_empty", "is_some", "is_none", "is_ok", "is_err", "contains", "contains_key":
		return mir.IntrinsicNone, types.BoolType, true
	case "push", "push_back", "push_front", "insert", "set_len":
		if baseName == "Vec" || baseName == "VecDeque" || baseName == "HashMap" || baseName == "BTreeMap" || baseName == "String" || baseName == "HashSet" {
			return mir.IntrinsicNone, types.UnitType, true
		}
	case "pop":
		if baseName == "Vec" || baseName == "VecDeque" {
			return mir.IntrinsicNone, types.NamedOf("Option", elemType(base)), true
		}
	case "iter", "iter_mut", "drain":
		return mir.IntrinsicNone, base, true
	case "as_ref", "as_mut", "as_slice", "as_mut_slice", "as_str", "deref":
		return mir.IntrinsicNone, types.RefTo(types.PeelAll(base)), true
	case "offset", "add", "sub":
		if _, isPtr := b.operandType(recvOp).(*types.RawPtr); isPtr {
			return mir.IntrinsicNone, b.operandType(recvOp), true
		}
	}
	return mir.IntrinsicNone, nil, false
}

func atomicValueType(atomicName string) types.Type {
	switch atomicName {
	case "AtomicBool":
		return types.BoolType
	case "AtomicUsize":
		return types.USizeType
	default:
		return types.I32Type
	}
}

// lookupUserMethod resolves a method against the program registry with a
// tolerant autoderef: Named base name first, then wrapper-arg names.
func (b *builder) lookupUserMethod(base types.Type, name string) *hir.FuncDef {
	if n, ok := base.(*types.Named); ok {
		if def := b.prog.LookupMethod(n.Name, name); def != nil {
			return def
		}
		for _, a := range n.Args {
			if an, ok := a.(*types.Named); ok {
				if def := b.prog.LookupMethod(an.Name, name); def != nil {
					return def
				}
			}
		}
	}
	// Receiver type unknown: match a uniquely named method anywhere.
	var found *hir.FuncDef
	count := 0
	for _, def := range b.prog.Funcs {
		if def.Name == name && def.IsMethod() {
			found = def
			count++
		}
	}
	if count == 1 {
		return found
	}
	return nil
}

// lowerMacro models the common expression macros.
func (b *builder) lowerMacro(e *ast.MacroCallExpr) (mir.Operand, types.Type) {
	switch e.Name {
	case "vec":
		args := b.lowerArgs(e.Args)
		elem := types.Type(types.UnknownType)
		if len(args) > 0 {
			elem = b.operandType(args[0])
		}
		ty := types.Type(types.NamedOf("Vec", elem))
		return b.emitCall("vec!", nil, mir.IntrinsicBoxNew, args, ty, "", e.Sp)
	case "panic", "unreachable", "todo", "unimplemented":
		b.lowerArgs(e.Args)
		b.setTerm(mir.Unreachable{Span: e.Sp})
		b.terminated = true
		return mir.Const{Text: "!", Ty: types.NeverType}, types.NeverType
	case "format":
		b.lowerArgs(e.Args)
		return mir.Const{Text: "format!", Ty: types.NamedOf("String")}, types.NamedOf("String")
	case "matches":
		b.lowerArgs(e.Args)
		return mir.Const{Text: "matches!", Ty: types.BoolType}, types.BoolType
	default:
		// println!, assert!, write!, custom macros: evaluate arguments
		// for effect, produce unit.
		b.lowerArgs(e.Args)
		return nil, types.UnitType
	}
}
