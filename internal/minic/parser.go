package minic

import (
	"fmt"

	"infat/internal/layout"
)

// Parse builds a Program from MiniC source.
func Parse(src string) (*Program, error) {
	s := getBufs()
	defer putBufs(s)
	toks, err := lex(s.toks, src)
	s.toks = toks
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: &Program{Structs: map[string]*layout.Type{}}}
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

type parser struct {
	toks []Token
	pos  int
	prog *Program
	ptrs pointerTypes
}

func (p *parser) cur() *Token { return &p.toks[p.pos] }

// at reports whether the current token is the punctuation or keyword k.
func (p *parser) at(k tok) bool { return p.toks[p.pos].code == k }

// peek returns the token n positions ahead, clamped to the trailing EOF
// sentinel so lookahead near the end of input stays in bounds.
func (p *parser) peek(n int) *Token {
	if p.pos+n >= len(p.toks) {
		return &p.toks[len(p.toks)-1]
	}
	return &p.toks[p.pos+n]
}

// next consumes and returns the current token. The EOF sentinel is never
// consumed: error paths that read past a truncated program keep seeing
// EOF instead of running the cursor off the token slice.
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{p.cur().Line, fmt.Sprintf(format, args...)}
}

// accept consumes the current token if it is the punctuation or keyword
// k. Literals never match, whatever their text.
func (p *parser) accept(k tok) bool {
	if p.toks[p.pos].code == k {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k tok) error {
	if !p.accept(k) {
		return p.errf("expected %q, found %s", tokText[k], p.cur())
	}
	return nil
}

// isTypeStart reports whether k begins a type name.
func isTypeStart(k tok) bool { return k >= kChar && k <= kStruct }

// atType reports whether the cursor is at the start of a type name.
func (p *parser) atType() bool { return isTypeStart(p.toks[p.pos].code) }

// parseType parses a base type plus pointer stars ("struct S**").
func (p *parser) parseType() (*layout.Type, error) {
	var base *layout.Type
	switch {
	case p.accept(kChar):
		base = layout.Char
	case p.accept(kInt):
		base = layout.Int
	case p.accept(kLong):
		base = layout.Long
	case p.accept(kVoid):
		base = layout.Void
	case p.accept(kStruct):
		name := p.next()
		if name.Kind != TokIdent {
			return nil, p.errf("expected struct name")
		}
		st, ok := p.prog.Structs[name.Text]
		if !ok {
			return nil, &SyntaxError{name.Line, fmt.Sprintf("unknown struct %q", name.Text)}
		}
		base = st
	default:
		return nil, p.errf("expected type, found %s", p.cur())
	}
	for p.accept(tMul) {
		base = p.ptrs.to(base)
	}
	return base, nil
}

// parseDeclarator parses "name" or "name[N]" / "name[N][M]" suffixes,
// wrapping base into array types.
func (p *parser) parseDeclarator(base *layout.Type) (string, *layout.Type, error) {
	name := p.next()
	if name.Kind != TokIdent {
		return "", nil, &SyntaxError{name.Line, fmt.Sprintf("expected identifier, found %s", name)}
	}
	var dimBuf [2]uint64 // room for the usual dimensions without allocating
	dims := dimBuf[:0]
	for p.accept(tLBrack) {
		n := p.next()
		if n.Kind != TokNumber || n.Num <= 0 {
			return "", nil, &SyntaxError{n.Line, "array dimension must be a positive integer literal"}
		}
		dims = append(dims, uint64(n.Num))
		if err := p.expect(tRBrack); err != nil {
			return "", nil, err
		}
	}
	t := base
	for i := len(dims) - 1; i >= 0; i-- {
		t = layout.ArrayOf(t, dims[i])
	}
	return name.Text, t, nil
}

func (p *parser) parseProgram() error {
	for p.cur().Kind != TokEOF {
		if p.at(kStruct) && p.peek(2).code == tLBrace {
			if err := p.parseStructDef(); err != nil {
				return err
			}
			continue
		}
		if !p.atType() {
			return p.errf("expected declaration, found %s", p.cur())
		}
		base, err := p.parseType()
		if err != nil {
			return err
		}
		line := p.cur().Line
		name, typ, err := p.parseDeclarator(base)
		if err != nil {
			return err
		}
		if p.at(tLParen) {
			fn, err := p.parseFuncRest(name, typ, line)
			if err != nil {
				return err
			}
			p.prog.Funcs = append(p.prog.Funcs, fn)
			continue
		}
		// Global variable.
		decl := &VarDecl{Name: name, Type: typ, Line: line}
		if p.accept(tAssign) {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			decl.Init = e
		}
		if err := p.expect(tSemi); err != nil {
			return err
		}
		p.prog.Globals = append(p.prog.Globals, decl)
	}
	return nil
}

func (p *parser) parseStructDef() error {
	if err := p.expect(kStruct); err != nil {
		return err
	}
	name := p.next()
	if name.Kind != TokIdent {
		return &SyntaxError{name.Line, "expected struct name"}
	}
	if err := p.expect(tLBrace); err != nil {
		return err
	}
	if _, dup := p.prog.Structs[name.Text]; dup {
		return &SyntaxError{name.Line, fmt.Sprintf("struct %q redefined", name.Text)}
	}
	// Register a placeholder first so members may hold pointers to the
	// struct being defined (self-referential list/tree nodes).
	placeholder := &layout.Type{Kind: layout.KindStruct, Name: "struct " + name.Text}
	p.prog.Structs[name.Text] = placeholder

	var fields []layout.Field
	for !p.accept(tRBrace) {
		base, err := p.parseType()
		if err != nil {
			return err
		}
		for {
			fname, ftype, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			if ftype == placeholder || (ftype.Kind == layout.KindArray && ftype.Elem == placeholder) {
				return &SyntaxError{name.Line,
					fmt.Sprintf("field %q has incomplete type struct %s", fname, name.Text)}
			}
			fields = append(fields, layout.F(fname, ftype))
			if !p.accept(tComma) {
				break
			}
		}
		if err := p.expect(tSemi); err != nil {
			return err
		}
	}
	if err := p.expect(tSemi); err != nil {
		return err
	}
	// Complete the placeholder in place: pointers captured during field
	// parsing keep referring to the same (now complete) type object.
	*placeholder = *layout.StructOf(name.Text, fields...)
	return nil
}

func (p *parser) parseFuncRest(name string, ret *layout.Type, line int) (*FuncDecl, error) {
	if err := p.expect(tLParen); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name, Ret: ret, Line: line}
	if !p.accept(tRParen) {
		if p.accept(kVoid) && p.at(tRParen) {
			// (void) parameter list.
		} else {
			for {
				base, err := p.parseType()
				if err != nil {
					return nil, err
				}
				pline := p.cur().Line
				pname, ptype, err := p.parseDeclarator(base)
				if err != nil {
					return nil, err
				}
				fn.Params = append(fn.Params, &VarDecl{Name: pname, Type: ptype, Line: pline})
				if !p.accept(tComma) {
					break
				}
			}
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*Block, error) {
	if err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.accept(tRBrace) {
		if p.cur().Kind == TokEOF {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.code {
	case tLBrace:
		return p.parseBlock()
	case kIf:
		p.pos++
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: then}
		if p.accept(kElse) {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case kWhile:
		p.pos++
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case kDo:
		p.pos++
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(kWhile); err != nil {
			return nil, err
		}
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond}, p.expect(tSemi)
	case kSwitch:
		return p.parseSwitch()
	case kFor:
		p.pos++
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		st := &ForStmt{}
		if !p.accept(tSemi) {
			init, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			st.Init = init
			if err := p.expect(tSemi); err != nil {
				return nil, err
			}
		}
		if !p.accept(tSemi) {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Cond = cond
			if err := p.expect(tSemi); err != nil {
				return nil, err
			}
		}
		if !p.at(tRParen) {
			post, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Post = post
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	case kReturn:
		p.pos++
		st := &ReturnStmt{Line: t.Line}
		if !p.at(tSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.E = e
		}
		return st, p.expect(tSemi)
	case kBreak:
		p.pos++
		return &BreakStmt{Line: t.Line}, p.expect(tSemi)
	case kContinue:
		p.pos++
		return &ContinueStmt{Line: t.Line}, p.expect(tSemi)
	default:
		s, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		return s, p.expect(tSemi)
	}
}

// parseSwitch parses a C switch with integer-literal case labels.
func (p *parser) parseSwitch() (Stmt, error) {
	line := p.cur().Line
	if err := p.expect(kSwitch); err != nil {
		return nil, err
	}
	if err := p.expect(tLParen); err != nil {
		return nil, err
	}
	scrut, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	st := &SwitchStmt{Scrut: scrut, Line: line}
	var curBody *[]Stmt
	for !p.accept(tRBrace) {
		switch {
		case p.accept(kCase):
			n := p.next()
			neg := false
			if n.code == tSub {
				neg = true
				n = p.next()
			}
			if n.Kind != TokNumber && n.Kind != TokChar {
				return nil, &SyntaxError{n.Line, "case label must be an integer or char literal"}
			}
			v := n.Num
			if neg {
				v = -v
			}
			if err := p.expect(tColon); err != nil {
				return nil, err
			}
			st.Cases = append(st.Cases, SwitchCase{Value: v})
			curBody = &st.Cases[len(st.Cases)-1].Body
		case p.accept(kDefault):
			if err := p.expect(tColon); err != nil {
				return nil, err
			}
			if st.Default != nil {
				return nil, &SyntaxError{p.cur().Line, "duplicate default label"}
			}
			st.Default = []Stmt{}
			curBody = &st.Default
		case p.cur().Kind == TokEOF:
			return nil, p.errf("unexpected end of file in switch")
		default:
			if curBody == nil {
				return nil, p.errf("statement before first case label")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			*curBody = append(*curBody, s)
		}
	}
	return st, nil
}

// parseSimpleStmt parses a declaration or expression (no trailing ';').
func (p *parser) parseSimpleStmt() (Stmt, error) {
	if p.atType() {
		base, err := p.parseType()
		if err != nil {
			return nil, err
		}
		line := p.cur().Line
		name, typ, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		d := &VarDecl{Name: name, Type: typ, Line: line}
		if p.accept(tAssign) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		return &DeclStmt{Decl: d}, nil
	}
	line := p.cur().Line
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{E: e, Line: line}, nil
}

// --- expressions, precedence climbing ---

func (p *parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *parser) parseAssign() (Expr, error) {
	lhs, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	switch t.code {
	case tAssign:
		p.pos++
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{L: lhs, R: rhs, Line: t.Line}, nil
	case tAddAssign, tSubAssign, tMulAssign, tDivAssign, tModAssign,
		tAndAssign, tOrAssign, tXorAssign, tShlAssign, tShrAssign:
		p.pos++
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		op := t.Text[:len(t.Text)-1]
		return &AssignExpr{L: lhs, R: &BinaryExpr{Op: op, L: lhs, R: rhs, Line: t.Line}, Line: t.Line}, nil
	}
	return lhs, nil
}

// binPrec is each binary operator's precedence; 0 for every other code.
var binPrec = [numToks]int{
	tLogOr: 1, tLogAnd: 2, tOr: 3, tXor: 4, tAnd: 5,
	tEq: 6, tNe: 6, tLt: 7, tLe: 7, tGt: 7, tGe: 7,
	tShl: 8, tShr: 8, tAdd: 9, tSub: 9, tMul: 10, tDiv: 10, tMod: 10,
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		prec := binPrec[t.code]
		if prec == 0 || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: t.Text, L: lhs, R: rhs, Line: t.Line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	switch t.code {
	case tAnd, tMul, tSub, tNot, tTilde:
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Text, E: e, Line: t.Line}, nil
	case tInc, tDec:
		// Prefix increment desugars to a compound assignment.
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := "+"
		if t.code == tDec {
			op = "-"
		}
		return &AssignExpr{L: e, R: &BinaryExpr{Op: op, L: e, R: &NumExpr{V: 1, Line: t.Line}, Line: t.Line}, Line: t.Line}, nil
	case kSizeof:
		p.pos++
		if err := p.expect(tLParen); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return &SizeofExpr{Type: typ, Line: t.Line}, nil
	case tLParen:
		// Cast or parenthesized expression.
		if p.isCastAhead() {
			p.pos++
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tRParen); err != nil {
				return nil, err
			}
			e, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return p.parsePostfixOn(&CastExpr{Type: typ, E: e, Line: t.Line})
		}
	}
	return p.parsePostfix()
}

// isCastAhead checks for "(" type ")" without consuming.
func (p *parser) isCastAhead() bool {
	return p.at(tLParen) && isTypeStart(p.peek(1).code)
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePostfixOn(e)
}

func (p *parser) parsePostfixOn(e Expr) (Expr, error) {
	for {
		t := p.cur()
		switch t.code {
		case tLBrack:
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tRBrack); err != nil {
				return nil, err
			}
			e = &IndexExpr{Base: e, Idx: idx, Line: t.Line}
		case tDot:
			p.pos++
			name := p.next()
			if name.Kind != TokIdent {
				return nil, &SyntaxError{name.Line, "expected member name"}
			}
			e = &MemberExpr{Base: e, Name: name.Text, Line: t.Line}
		case tArrow:
			p.pos++
			name := p.next()
			if name.Kind != TokIdent {
				return nil, &SyntaxError{name.Line, "expected member name"}
			}
			e = &MemberExpr{Base: e, Name: name.Text, Arrow: true, Line: t.Line}
		case tInc, tDec:
			// Postfix increment as statement-position sugar: evaluates to
			// the *updated* value in this subset (documented deviation).
			p.pos++
			op := "+"
			if t.code == tDec {
				op = "-"
			}
			e = &AssignExpr{L: e, R: &BinaryExpr{Op: op, L: e, R: &NumExpr{V: 1, Line: t.Line}, Line: t.Line}, Line: t.Line}
		default:
			return e, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber, t.Kind == TokChar:
		p.pos++
		return &NumExpr{V: t.Num, Line: t.Line}, nil
	case t.Kind == TokString:
		p.pos++
		return &StrExpr{S: t.Text, Line: t.Line}, nil
	case t.Kind == TokIdent:
		p.pos++
		if p.at(tLParen) {
			p.pos++
			call := &CallExpr{Name: t.Text, Line: t.Line}
			if !p.accept(tRParen) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(tComma) {
						break
					}
				}
				if err := p.expect(tRParen); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		return &IdentExpr{Name: t.Text, Line: t.Line}, nil
	case t.code == tLParen:
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(tRParen)
	}
	return nil, p.errf("unexpected token %s", t)
}
