// Package parse implements the textual format for rule sets and databases
// used throughout the repository.
//
// Grammar (comments run from '%', '#' or '//' to end of line):
//
//	program   ::= statement*
//	statement ::= rule '.' | fact '.'
//	rule      ::= atoms '->' atoms
//	atoms     ::= atom (',' atom)*
//	atom      ::= ident [ '(' term (',' term)* ')' ]
//	term      ::= variable | constant
//
// Identifiers starting with an upper-case letter or '_' are variables; all
// other identifiers, numerals, and single-quoted strings are constants.
// Head variables that do not occur in the body are existentially
// quantified, following the standard Datalog± convention, e.g.
//
//	person(X) -> hasFather(X,Y), person(Y).   % Y is existential
//	p(a,b).                                   % a fact
package parse

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"chaseterm/internal/logic"
)

// Program is the result of parsing: a rule set plus ground facts.
type Program struct {
	Rules *logic.RuleSet
	Facts []logic.Atom
}

// Error is a parse error carrying a 1-based line and column.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("parse: %d:%d: %s", e.Line, e.Col, e.Msg) }

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokArrow
)

type token struct {
	kind      tokenKind
	text      string
	line, col int
}

type lexer struct {
	src       string
	pos       int
	line, col int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, *Error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			l.adv()
		case c == '\n':
			l.adv()
		case c == '%' || c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: l.line, col: l.col}, nil

scan:
	line, col := l.line, l.col
	c := l.src[l.pos]
	switch c {
	case '(':
		l.adv()
		return token{tokLParen, "(", line, col}, nil
	case ')':
		l.adv()
		return token{tokRParen, ")", line, col}, nil
	case ',':
		l.adv()
		return token{tokComma, ",", line, col}, nil
	case '.':
		l.adv()
		return token{tokDot, ".", line, col}, nil
	case '-':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '>' {
			l.adv()
			l.adv()
			return token{tokArrow, "->", line, col}, nil
		}
		return token{}, l.errf(line, col, "unexpected '-' (expected '->')")
	case ':':
		// Accept ':-' as a reversed arrow is NOT supported; report clearly.
		return token{}, l.errf(line, col, "unexpected ':' (this format uses 'body -> head')")
	case '\'':
		start := l.pos
		l.adv()
		for l.pos < len(l.src) && l.src[l.pos] != '\'' && l.src[l.pos] != '\n' {
			l.adv()
		}
		if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
			return token{}, l.errf(line, col, "unterminated quoted constant")
		}
		l.adv()
		return token{tokIdent, l.src[start:l.pos], line, col}, nil
	}
	if r, _ := utf8.DecodeRuneInString(l.src[l.pos:]); isIdentStart(r) {
		start := l.pos
		for l.pos < len(l.src) {
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentPart(r) {
				break
			}
			l.advN(size)
		}
		return token{tokIdent, l.src[start:l.pos], line, col}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return token{}, l.errf(line, col, "unexpected character %q", r)
}

func (l *lexer) adv() {
	if l.src[l.pos] == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	l.pos++
}

// advN advances over one rune occupying n bytes (never a newline: callers
// use it only inside identifiers and quoted constants).
func (l *lexer) advN(n int) {
	l.col++
	l.pos += n
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.adv()
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

type parser struct {
	lex  *lexer
	tok  token
	peek *token
	args []logic.Term // reused buffer for the atom being parsed
}

func newParser(src string) (*parser, *Error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() *Error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peekTok() (token, *Error) {
	if p.peek == nil {
		t, err := p.lex.next()
		if err != nil {
			return token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

func (p *parser) errHere(format string, args ...any) *Error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

// Parse parses a full program: rules and facts in any order.
func Parse(src string) (*Program, error) {
	p, perr := newParser(src)
	if perr != nil {
		return nil, perr
	}
	prog := &Program{Rules: logic.NewRuleSet()}
	for p.tok.kind != tokEOF {
		atoms, err := p.parseAtoms()
		if err != nil {
			return nil, err
		}
		switch p.tok.kind {
		case tokArrow:
			if err := p.advance(); err != nil {
				return nil, err
			}
			head, err := p.parseAtoms()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokDot); err != nil {
				return nil, err
			}
			prog.Rules.Rules = append(prog.Rules.Rules, logic.NewTGD(atoms, head))
		case tokDot:
			if err := p.advance(); err != nil {
				return nil, err
			}
			for _, a := range atoms {
				if !a.IsGround() {
					return nil, p.errHere("fact %s contains a variable", a)
				}
				prog.Facts = append(prog.Facts, a)
			}
		default:
			return nil, p.errHere("expected '->' or '.', got %q", p.tok.text)
		}
	}
	if err := prog.Rules.Validate(); err != nil {
		return nil, err
	}
	if err := CheckFactArities(prog.Rules, prog.Facts); err != nil {
		return nil, err
	}
	return prog, nil
}

// CheckFactArities requires the facts to agree with the rules' arities
// and with each other. Parse runs it on one text; callers that parse
// rules and facts separately run it where the two meet, before the facts
// reach an instance compiled from the rules. The rules' arities come
// from their schema summary, so only the predicates that occur in facts
// alone get a map.
func CheckFactArities(rules *logic.RuleSet, facts []logic.Atom) error {
	var factOnly map[string]int
	for _, f := range facts {
		k, inRules := rules.Arity(f.Pred)
		if !inRules {
			if factOnly == nil {
				factOnly = make(map[string]int)
			}
			var seen bool
			if k, seen = factOnly[f.Pred]; !seen {
				factOnly[f.Pred] = len(f.Args)
				continue
			}
		}
		if k != len(f.Args) {
			other := "an earlier fact uses"
			if inRules {
				other = "rules use"
			}
			return fmt.Errorf("parse: fact %s uses predicate %s with arity %d, %s %d", f, f.Pred, len(f.Args), other, k)
		}
	}
	return nil
}

// ParseRules parses a program and requires it to contain rules only.
func ParseRules(src string) (*logic.RuleSet, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Facts) > 0 {
		return nil, fmt.Errorf("parse: expected rules only, found fact %s", prog.Facts[0])
	}
	return prog.Rules, nil
}

// ParseFacts parses a program and requires it to contain facts only.
func ParseFacts(src string) ([]logic.Atom, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules.Rules) > 0 {
		return nil, fmt.Errorf("parse: expected facts only, found rule %s", prog.Rules.Rules[0])
	}
	return prog.Facts, nil
}

// MustParseRules is ParseRules that panics on error; intended for tests and
// package-level example data.
func MustParseRules(src string) *logic.RuleSet {
	rs, err := ParseRules(src)
	if err != nil {
		panic(err)
	}
	return rs
}

// MustParseFacts is ParseFacts that panics on error.
func MustParseFacts(src string) []logic.Atom {
	fs, err := ParseFacts(src)
	if err != nil {
		panic(err)
	}
	return fs
}

// ParseAtomList parses a bare comma-separated conjunction of atoms (no
// trailing dot), e.g. "teaches(P,C), course(C)". Used for conjunctive
// queries.
func ParseAtomList(src string) ([]logic.Atom, error) {
	p, perr := newParser(src)
	if perr != nil {
		return nil, perr
	}
	atoms, err := p.parseAtoms()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errHere("unexpected %q after conjunction", p.tok.text)
	}
	return atoms, nil
}

func (p *parser) expect(k tokenKind) *Error {
	if p.tok.kind != k {
		return p.errHere("expected %s, got %q", kindName(k), p.tok.text)
	}
	return p.advance()
}

func kindName(k tokenKind) string {
	switch k {
	case tokDot:
		return "'.'"
	case tokArrow:
		return "'->'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokIdent:
		return "identifier"
	default:
		return "end of input"
	}
}

func (p *parser) parseAtoms() ([]logic.Atom, *Error) {
	var atoms []logic.Atom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, a)
		if p.tok.kind != tokComma {
			return atoms, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseAtom() (logic.Atom, *Error) {
	if p.tok.kind != tokIdent {
		return logic.Atom{}, p.errHere("expected predicate name, got %q", p.tok.text)
	}
	name := p.tok.text
	if strings.HasPrefix(name, "'") {
		return logic.Atom{}, p.errHere("predicate name cannot be a quoted constant")
	}
	if err := p.advance(); err != nil {
		return logic.Atom{}, err
	}
	if p.tok.kind != tokLParen {
		return logic.Atom{Pred: name}, nil // 0-ary atom
	}
	if err := p.advance(); err != nil {
		return logic.Atom{}, err
	}
	if p.tok.kind == tokRParen { // p() — explicit 0-ary
		if err := p.advance(); err != nil {
			return logic.Atom{}, err
		}
		return logic.Atom{Pred: name}, nil
	}
	// The arguments collect in the reused buffer, so the atom gets one
	// exactly sized copy instead of every step of append's growth.
	args := p.args[:0]
	for {
		t, err := p.parseTerm()
		if err != nil {
			return logic.Atom{}, err
		}
		args = append(args, t)
		p.args = args
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return logic.Atom{}, err
			}
			continue
		}
		if p.tok.kind == tokRParen {
			if err := p.advance(); err != nil {
				return logic.Atom{}, err
			}
			return logic.Atom{Pred: name, Args: slices.Clone(args)}, nil
		}
		return logic.Atom{}, p.errHere("expected ',' or ')', got %q", p.tok.text)
	}
}

func (p *parser) parseTerm() (logic.Term, *Error) {
	if p.tok.kind != tokIdent {
		return nil, p.errHere("expected term, got %q", p.tok.text)
	}
	text := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if strings.HasPrefix(text, "'") {
		return logic.Constant(strings.Trim(text, "'")), nil
	}
	r, _ := utf8.DecodeRuneInString(text)
	if r == '_' || unicode.IsUpper(r) {
		return logic.Variable(text), nil
	}
	return logic.Constant(text), nil
}

// FormatRules renders a rule set in the input format (inverse of ParseRules
// up to whitespace).
func FormatRules(rs *logic.RuleSet) string {
	return rs.String()
}

// FormatFacts renders facts in the input format.
func FormatFacts(facts []logic.Atom) string {
	var b strings.Builder
	for _, f := range facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	return b.String()
}
