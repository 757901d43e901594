// Package minic is a from-scratch compiler for a C subset, standing in
// for the paper's modified Clang/LLVM (§4). It lexes, parses, type-checks,
// and lowers MiniC programs to a stack IR; the lowering performs the In-Fat
// Pointer instrumentation of Figure 3 (object registration, pointer-tag
// updates on member derivation, promotes on pointer loads, bounds checks),
// and a VM executes the IR against the simulated machine. Compiling with
// instrumentation disabled yields the uninstrumented baseline the paper
// compares against.
//
// The subset covers what the Juliet-style evaluation needs: char/int/long,
// structs, fixed arrays, pointers, globals, functions with arguments and
// recursion, control flow, malloc/free/memset/memcpy, sizeof, casts, and
// string literals.
package minic

import "fmt"

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokChar
	TokPunct   // operators and punctuation
	TokKeyword // reserved words
)

// Token is one lexeme.
type Token struct {
	Kind TokKind
	code tok // which punctuation or keyword; tNone for every other kind
	Text string
	Num  int64 // value for TokNumber / TokChar
	Line int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "<eof>"
	}
	return fmt.Sprintf("%q", t.Text)
}

// tok codes a punctuation or keyword token. The parser matches tokens by
// code, so a string or char literal never stands in for punctuation or a
// keyword whatever its text.
type tok uint8

// Token codes: punctuation, then keywords.
const (
	tNone tok = iota
	tShlAssign
	tShrAssign
	tArrow
	tInc
	tDec
	tShl
	tShr
	tLe
	tGe
	tEq
	tNe
	tLogAnd
	tLogOr
	tAddAssign
	tSubAssign
	tMulAssign
	tDivAssign
	tModAssign
	tAndAssign
	tOrAssign
	tXorAssign
	tAdd
	tSub
	tMul
	tDiv
	tMod
	tAssign
	tLt
	tGt
	tNot
	tAnd
	tOr
	tXor
	tTilde
	tLParen
	tRParen
	tLBrace
	tRBrace
	tLBrack
	tRBrack
	tSemi
	tComma
	tDot
	tQuest
	tColon

	kChar // the type keywords come first: isTypeStart tests a range
	kInt
	kLong
	kVoid
	kStruct
	kIf
	kElse
	kWhile
	kFor
	kReturn
	kSizeof
	kBreak
	kContinue
	kDo
	kSwitch
	kCase
	kDefault
	numToks
)

// tokText is each code's text, which is also its token's Text.
var tokText = [numToks]string{
	tShlAssign: "<<=", tShrAssign: ">>=", tArrow: "->", tInc: "++", tDec: "--",
	tShl: "<<", tShr: ">>", tLe: "<=", tGe: ">=", tEq: "==", tNe: "!=",
	tLogAnd: "&&", tLogOr: "||", tAddAssign: "+=", tSubAssign: "-=",
	tMulAssign: "*=", tDivAssign: "/=", tModAssign: "%=", tAndAssign: "&=",
	tOrAssign: "|=", tXorAssign: "^=", tAdd: "+", tSub: "-", tMul: "*",
	tDiv: "/", tMod: "%", tAssign: "=", tLt: "<", tGt: ">", tNot: "!",
	tAnd: "&", tOr: "|", tXor: "^", tTilde: "~", tLParen: "(", tRParen: ")",
	tLBrace: "{", tRBrace: "}", tLBrack: "[", tRBrack: "]", tSemi: ";",
	tComma: ",", tDot: ".", tQuest: "?", tColon: ":",
	kChar: "char", kInt: "int", kLong: "long", kVoid: "void", kStruct: "struct",
	kIf: "if", kElse: "else", kWhile: "while", kFor: "for", kReturn: "return",
	kSizeof: "sizeof", kBreak: "break", kContinue: "continue", kDo: "do",
	kSwitch: "switch", kCase: "case", kDefault: "default",
}

// keyword returns word's keyword code, or tNone for an identifier.
func keyword(word string) tok {
	switch word {
	case "char":
		return kChar
	case "int":
		return kInt
	case "long":
		return kLong
	case "void":
		return kVoid
	case "struct":
		return kStruct
	case "if":
		return kIf
	case "else":
		return kElse
	case "while":
		return kWhile
	case "for":
		return kFor
	case "return":
		return kReturn
	case "sizeof":
		return kSizeof
	case "break":
		return kBreak
	case "continue":
		return kContinue
	case "do":
		return kDo
	case "switch":
		return kSwitch
	case "case":
		return kCase
	case "default":
		return kDefault
	}
	return tNone
}

// punct returns the longest punctuation token at src[i], or tNone.
func punct(src string, i int) tok {
	// The next two bytes, 0 past the end (no punctuation contains 0).
	var c1, c2 byte
	if i+1 < len(src) {
		c1 = src[i+1]
		if i+2 < len(src) {
			c2 = src[i+2]
		}
	}
	switch src[i] {
	case '(':
		return tLParen
	case ')':
		return tRParen
	case '{':
		return tLBrace
	case '}':
		return tRBrace
	case '[':
		return tLBrack
	case ']':
		return tRBrack
	case ';':
		return tSemi
	case ',':
		return tComma
	case '.':
		return tDot
	case '?':
		return tQuest
	case ':':
		return tColon
	case '~':
		return tTilde
	case '<':
		if c1 == '<' {
			return orEq(c2, tShlAssign, tShl)
		}
		return orEq(c1, tLe, tLt)
	case '>':
		if c1 == '>' {
			return orEq(c2, tShrAssign, tShr)
		}
		return orEq(c1, tGe, tGt)
	case '-':
		switch c1 {
		case '>':
			return tArrow
		case '-':
			return tDec
		}
		return orEq(c1, tSubAssign, tSub)
	case '+':
		if c1 == '+' {
			return tInc
		}
		return orEq(c1, tAddAssign, tAdd)
	case '&':
		if c1 == '&' {
			return tLogAnd
		}
		return orEq(c1, tAndAssign, tAnd)
	case '|':
		if c1 == '|' {
			return tLogOr
		}
		return orEq(c1, tOrAssign, tOr)
	case '=':
		return orEq(c1, tEq, tAssign)
	case '!':
		return orEq(c1, tNe, tNot)
	case '*':
		return orEq(c1, tMulAssign, tMul)
	case '/':
		return orEq(c1, tDivAssign, tDiv)
	case '%':
		return orEq(c1, tModAssign, tMod)
	case '^':
		return orEq(c1, tXorAssign, tXor)
	}
	return tNone
}

// orEq is withEq when the next byte c is '=', else plain.
func orEq(c byte, withEq, plain tok) tok {
	if c == '=' {
		return withEq
	}
	return plain
}

// SyntaxError is a lexing or parsing failure.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minic:%d: %s", e.Line, e.Msg)
}

// Lex tokenizes src. Punctuation and keywords carry their token code.
func Lex(src string) ([]Token, error) {
	toks, err := lex(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lex appends src's tokens to toks. On an error it returns the tokens so
// far with it, so Parse keeps its pooled buffer either way.
func lex(toks []Token, src string) ([]Token, error) {
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch c {
		case '\n':
			line++
			i++
			continue
		case ' ', '\t', '\r':
			i++
			continue
		case '/':
			if i+1 < len(src) && src[i+1] == '/' {
				for i < len(src) && src[i] != '\n' {
					i++
				}
				continue
			}
			if i+1 < len(src) && src[i+1] == '*' {
				i += 2
				for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
					if src[i] == '\n' {
						line++
					}
					i++
				}
				if i+1 >= len(src) {
					return toks, &SyntaxError{line, "unterminated block comment"}
				}
				i += 2
				continue
			}
		case '"':
			// The text is a slice of src unless an escape needs unescaping.
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\\' {
				j++
			}
			text := src[i+1 : j]
			if j < len(src) && src[j] == '\\' {
				b := []byte(text)
				for j < len(src) && src[j] != '"' {
					ch, nj, err := unescape(src, j, line)
					if err != nil {
						return toks, err
					}
					b = append(b, ch)
					j = nj
				}
				text = string(b)
			}
			if j >= len(src) {
				return toks, &SyntaxError{line, "unterminated string literal"}
			}
			toks = append(toks, Token{Kind: TokString, Text: text, Line: line})
			i = j + 1
			continue
		case '\'':
			j := i + 1
			if j >= len(src) {
				return toks, &SyntaxError{line, "unterminated char literal"}
			}
			ch, nj, err := unescape(src, j, line)
			if err != nil {
				return toks, err
			}
			if nj >= len(src) || src[nj] != '\'' {
				return toks, &SyntaxError{line, "unterminated char literal"}
			}
			toks = append(toks, Token{Kind: TokChar, Text: string(ch), Num: int64(ch), Line: line})
			i = nj + 1
			continue
		}
		switch {
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			word := src[i:j]
			if k := keyword(word); k != tNone {
				toks = append(toks, Token{Kind: TokKeyword, code: k, Text: word, Line: line})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Line: line})
			}
			i = j
		case c >= '0' && c <= '9':
			j := i
			base := int64(10)
			if c == '0' && j+1 < len(src) && (src[j+1] == 'x' || src[j+1] == 'X') {
				base = 16
				j += 2
			}
			var n int64
			for ; j < len(src) && isDigit(src[j], base); j++ {
				n = n*base + digitVal(src[j])
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[i:j], Num: n, Line: line})
			i = j
		default:
			k := punct(src, i)
			if k == tNone {
				return toks, &SyntaxError{line, fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, Token{Kind: TokPunct, code: k, Text: tokText[k], Line: line})
			i += len(tokText[k])
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line})
	return toks, nil
}

func unescape(src string, j, line int) (byte, int, error) {
	if src[j] != '\\' {
		return src[j], j + 1, nil
	}
	if j+1 >= len(src) {
		return 0, 0, &SyntaxError{line, "dangling escape"}
	}
	switch src[j+1] {
	case 'n':
		return '\n', j + 2, nil
	case 't':
		return '\t', j + 2, nil
	case 'r':
		return '\r', j + 2, nil
	case '0':
		return 0, j + 2, nil
	case '\\':
		return '\\', j + 2, nil
	case '\'':
		return '\'', j + 2, nil
	case '"':
		return '"', j + 2, nil
	}
	return 0, 0, &SyntaxError{line, fmt.Sprintf("unknown escape \\%c", src[j+1])}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte, base int64) bool {
	if base == 16 {
		return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return c >= '0' && c <= '9'
}

func digitVal(c byte) int64 {
	switch {
	case c >= '0' && c <= '9':
		return int64(c - '0')
	case c >= 'a' && c <= 'f':
		return int64(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int64(c-'A') + 10
	}
	return 0
}
