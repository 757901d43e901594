package minic

import (
	"fmt"
	"strings"
	"testing"
)

var keywords = map[string]bool{
	"char": true, "int": true, "long": true, "void": true,
	"struct": true, "if": true, "else": true, "while": true,
	"for": true, "return": true, "sizeof": true, "break": true,
	"continue": true, "do": true, "switch": true, "case": true,
	"default": true,
}

// multi-character punctuation, longest first.
var puncts = []string{
	"<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
	"&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
}

// lexReference is the lexer before token codes, kept verbatim as the
// differential oracle for Lex: FuzzLex and TestLexMatchesReference hold
// the byte-switch lexer to its token slices and error texts.
func lexReference(src string) ([]Token, error) {
	var toks []Token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= len(src) {
				return nil, &SyntaxError{line, "unterminated block comment"}
			}
			i += 2
		case isIdentStart(c):
			j := i
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			word := src[i:j]
			kind := TokIdent
			if keywords[word] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: word, Line: line})
			i = j
		case c >= '0' && c <= '9':
			j := i
			base := int64(10)
			if c == '0' && j+1 < len(src) && (src[j+1] == 'x' || src[j+1] == 'X') {
				base = 16
				j += 2
			}
			start := j
			for j < len(src) && isDigit(src[j], base) {
				j++
			}
			var n int64
			for _, d := range src[start:j] {
				n = n*base + digitVal(byte(d))
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[i:j], Num: n, Line: line})
			i = j
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				ch, nj, err := unescape(src, j, line)
				if err != nil {
					return nil, err
				}
				sb.WriteByte(ch)
				j = nj
			}
			if j >= len(src) {
				return nil, &SyntaxError{line, "unterminated string literal"}
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Line: line})
			i = j + 1
		case c == '\'':
			j := i + 1
			if j >= len(src) {
				return nil, &SyntaxError{line, "unterminated char literal"}
			}
			ch, nj, err := unescape(src, j, line)
			if err != nil {
				return nil, err
			}
			if nj >= len(src) || src[nj] != '\'' {
				return nil, &SyntaxError{line, "unterminated char literal"}
			}
			toks = append(toks, Token{Kind: TokChar, Text: string(ch), Num: int64(ch), Line: line})
			i = nj + 1
		default:
			matched := false
			for _, p := range puncts {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, Token{Kind: TokPunct, Text: p, Line: line})
					i += len(p)
					matched = true
					break
				}
			}
			if !matched {
				return nil, &SyntaxError{line, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line})
	return toks, nil
}

// LexDiff returns how Lex and lexReference disagree on src, or "" when
// they agree: identical token slices or errors with identical text. It
// also checks every token's code against its kind and text; the
// reference predates codes, so codes are compared that way only.
func LexDiff(src string) string {
	got, gerr := Lex(src)
	want, werr := lexReference(src)
	if errString(gerr) != errString(werr) {
		return fmt.Sprintf("error: got %v, reference %v", gerr, werr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d tokens, reference %d", len(got), len(want))
	}
	for i, g := range got {
		switch {
		case g.Kind == TokPunct && (g.code == tNone || g.code >= kChar || tokText[g.code] != g.Text),
			g.Kind == TokKeyword && (g.code < kChar || tokText[g.code] != g.Text),
			g.Kind != TokPunct && g.Kind != TokKeyword && g.code != tNone:
			return fmt.Sprintf("token %d: kind %d, code %d, text %q", i, g.Kind, g.code, g.Text)
		}
		g.code = tNone
		if g != want[i] {
			return fmt.Sprintf("token %d: got %+v, reference %+v", i, g, want[i])
		}
	}
	return ""
}

// TestLexMatchesReferenceShort lexes every string of up to three bytes
// over an alphabet of each punctuation byte and every byte that starts or
// ends another token class, so each longest-match decision and each
// literal and comment edge is compared with the reference exhaustively.
func TestLexMatchesReferenceShort(t *testing.T) {
	const alphabet = "<>=!&|+-*/%^~()[]{};,.?:'\"\\ \n\t_a0x9#\x00\xff"
	buf := make([]byte, 0, 3)
	var walk func(depth int)
	walk = func(depth int) {
		if d := LexDiff(string(buf)); d != "" {
			t.Fatalf("%q: %s", buf, d)
		}
		if depth == 3 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			walk(depth + 1)
			buf = buf[:len(buf)-1]
		}
	}
	walk(0)
}
