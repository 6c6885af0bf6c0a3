// Package minic implements a small C-like front-end that lowers source text
// to KIR (internal/ir). MiniC covers the subset of C that drives pointer
// analysis and the paper's imprecision idioms: structs with function-pointer
// fields, multi-level pointers, arbitrary pointer arithmetic (*(p+i)),
// heap allocation via malloc(sizeof(T)), function pointers and indirect
// calls, arrays, and ordinary control flow.
package minic

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokPunct   // ( ) { } [ ] ; , . -> & * + - / % = == != < <= > >= ! && ||
	tokKeyword // struct global if else while return int char void fn malloc sizeof input output null
)

var keywords = map[string]bool{
	"struct": true, "if": true, "else": true, "while": true, "for": true,
	"break": true, "continue": true, "return": true,
	"int": true, "char": true, "void": true, "fn": true,
	"malloc": true, "sizeof": true, "input": true, "output": true, "null": true,
}

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of file"
	}
	return fmt.Sprintf("%q", t.text)
}

// Error is a front-end diagnostic with a source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("minic: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token // nil while counting
	n    int     // tokens scanned so far
}

// lex tokenizes src, returning all tokens (terminated by tokEOF). A first
// pass only counts the tokens, so the token slice is allocated once at its
// exact length instead of being regrown by append as a long source is read.
func lex(src string) ([]token, error) {
	count := &lexer{src: src, line: 1}
	if err := count.scan(); err != nil {
		return nil, err
	}
	l := &lexer{src: src, line: 1, toks: make([]token, 0, count.n)}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

// scan reads the whole source, emitting every token.
func (l *lexer) scan() error {
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return nil
		}
		c := l.src[l.pos]
		start := l.pos
		switch {
		case isIdentStart(c):
			for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos])
		case c >= '0' && c <= '9':
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			l.emit(tokInt, l.src[start:l.pos])
		default:
			if err := l.punct(); err != nil {
				return err
			}
			l.emit(tokPunct, l.src[start:l.pos])
		}
	}
}

// emit counts a token and, unless counting, appends it (identifiers that
// spell a keyword become keyword tokens).
func (l *lexer) emit(kind tokKind, text string) {
	l.n++
	if l.toks == nil {
		return
	}
	if kind == tokIdent && keywords[text] {
		kind = tokKeyword
	}
	l.toks = append(l.toks, token{kind: kind, text: text, line: l.line})
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			l.pos += 2
			for l.pos < len(l.src) && !strings.HasPrefix(l.src[l.pos:], "*/") {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
		default:
			return
		}
	}
}

var twoCharPuncts = []string{"->", "==", "!=", "<=", ">=", "&&", "||"}

// punct consumes one punctuator.
func (l *lexer) punct() error {
	rest := l.src[l.pos:]
	for _, p := range twoCharPuncts {
		if strings.HasPrefix(rest, p) {
			l.pos += 2
			return nil
		}
	}
	c := l.src[l.pos]
	if strings.ContainsRune("(){}[];,.&*+-/%=<>!", rune(c)) {
		l.pos++
		return nil
	}
	return errf(l.line, "unexpected character %q", c)
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }
