package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"strings"
)

// ErrDuplicateMember is the Reader's one departure from encoding/json: a
// known member set twice in one object (after case folding) is an error.
// encoding/json keeps the last value, but a repeated array or object is
// decoded into the first one's storage without zeroing it, so what it
// produces is an accident of its implementation.
var ErrDuplicateMember = errors.New("json: member set twice in one object")

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// Reader decodes one JSON value from a buffer with encoding/json's rules:
// the same syntax (whitespace, number grammar, string escapes, nesting
// limit), the same key matching (exact name first, then case-folded),
// unknown members skipped, null leaving a scalar unset and a pointer or
// slice nil, integer fields rejecting fractions, exponents and overflow,
// and bytes after the value ignored. The caller walks the value with
// Object/Array and More, reading each member with Key and a typed getter
// or Skip. The first error sticks: every later call is a no-op returning
// a zero value, and Err reports it.
//
// Plain strings and keys (printable ASCII, no escapes) are decoded here;
// any other string token is handed to encoding/json on its own.
type Reader struct {
	buf   []byte
	pos   int
	stack []byte // closing bracket of each open container, innermost last
	first bool   // just past an opening bracket: no comma before the next item
	err   error
}

// NewReader returns a Reader over b. Decoded strings never alias b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error the Reader met, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the bytes from the current position to the end of the
// buffer.
func (r *Reader) Rest() []byte { return r.buf[r.pos:] }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// peek skips whitespace and returns the next byte. At the end of the
// buffer it records io.EOF when no value has started (encoding/json's
// error for an empty body) and io.ErrUnexpectedEOF otherwise, and
// returns 0.
func (r *Reader) peek() byte {
	if r.pos < len(r.buf) && r.buf[r.pos] > ' ' { // no whitespace to skip
		return r.buf[r.pos]
	}
	for r.pos < len(r.buf) {
		switch c := r.buf[r.pos]; c {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return c
		}
	}
	if len(r.stack) == 0 { // only the top-level value starts outside a container
		r.fail(io.EOF)
	} else {
		r.fail(io.ErrUnexpectedEOF)
	}
	return 0
}

// syntax records a syntax error at r.pos (io.ErrUnexpectedEOF past the
// end of the buffer).
func (r *Reader) syntax(context string) {
	if r.pos >= len(r.buf) {
		r.fail(io.ErrUnexpectedEOF)
		return
	}
	r.fail(fmt.Errorf("json: invalid character %q %s at offset %d", r.buf[r.pos], context, r.pos))
}

// mismatch records that the value starting with c is not of kind want.
func (r *Reader) mismatch(c byte, want string) {
	if r.err != nil {
		return
	}
	var got string
	switch {
	case c == '"':
		got = "string"
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || isDigit(c):
		got = "number"
	default:
		r.syntax("looking for beginning of value")
		return
	}
	r.fail(fmt.Errorf("json: cannot decode %s into %s at offset %d", got, want, r.pos))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

// literal consumes lit (true, false or null), which starts at r.pos.
func (r *Reader) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if r.pos+i >= len(r.buf) {
			r.pos += i
			r.fail(io.ErrUnexpectedEOF)
			return
		}
		if r.buf[r.pos+i] != lit[i] {
			r.pos += i
			r.syntax("in literal " + lit)
			return
		}
	}
	r.pos += len(lit)
}

// number consumes the number token at r.pos (a minus sign or a digit).
func (r *Reader) number() {
	b, i := r.buf, r.pos
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = skipDigits(b, i)
	default:
		r.pos = i
		r.syntax("in numeric literal")
		return
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			r.pos = i
			r.syntax("after decimal point in numeric literal")
			return
		}
		i = skipDigits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			r.pos = i
			r.syntax("in exponent of numeric literal")
			return
		}
		i = skipDigits(b, i)
	}
	r.pos = i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// stringToken consumes the string token starting at r.pos (its opening
// quote) and reports whether it is plain: printable ASCII and no escapes,
// so the bytes between the quotes are its value.
func (r *Reader) stringToken() (plain bool) {
	b := r.buf
	plain = true
	for i := r.pos + 1; i < len(b); {
		c := b[i]
		if c >= 0x20 && c < 0x80 && c != '"' && c != '\\' {
			i++
			continue
		}
		switch {
		case c == '"':
			r.pos = i + 1
			return plain
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k < len(b) && !isHex(b[i+k]) {
						r.pos = i + k
						r.syntax("in \\u hexadecimal character escape")
						return false
					}
				}
				i += 5
			default:
				r.pos = i
				r.syntax("in string escape code")
				return false
			}
		case c < 0x20:
			r.pos = i
			r.syntax("in string literal")
			return false
		default: // non-ASCII, kept as encoding/json keeps it
			plain = false
			i++
		}
	}
	r.pos = len(b)
	r.fail(io.ErrUnexpectedEOF)
	return false
}

// unquote decodes the non-plain string token b (quotes included).
func (r *Reader) unquote(b []byte) string {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		r.fail(err)
	}
	return s
}

// push opens a container whose closing bracket is close.
func (r *Reader) push(close byte) bool {
	if len(r.stack) >= maxDepth {
		r.fail(fmt.Errorf("json: exceeded max depth at offset %d", r.pos))
		return false
	}
	r.pos++
	r.stack = append(r.stack, close)
	r.first = true
	return true
}

// open consumes the opening bracket of an object or array (reporting
// true) or a null (reporting false); any other value is an error.
func (r *Reader) open(bracket, close byte, want string) bool {
	if r.err != nil {
		return false
	}
	switch c := r.peek(); c {
	case bracket:
		return r.push(close)
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, want)
	}
	return false
}

// Object opens an object value, reporting true; on null it reports false
// and the caller leaves its target nil or unset.
func (r *Reader) Object() bool { return r.open('{', '}', "object") }

// Array opens an array value, reporting true; on null it reports false.
func (r *Reader) Array() bool { return r.open('[', ']', "array") }

// More reports whether the innermost open object or array has another
// member or element. At its closing bracket, More consumes it, closes the
// container and reports false. After More reports true, the caller reads
// one element (for an array) or one Key and its value (for an object).
func (r *Reader) More() bool {
	if r.err != nil {
		return false
	}
	c := r.peek()
	if r.err != nil {
		return false
	}
	if n := len(r.stack) - 1; c == r.stack[n] {
		r.pos++
		r.stack = r.stack[:n]
		r.first = false
		return false
	}
	if r.first {
		r.first = false
		return true
	}
	if c != ',' {
		r.syntax("after object member or array element")
		return false
	}
	r.pos++
	return true
}

// Key reads a member's key and its colon, and returns the index in names
// of the member it selects, matched as encoding/json matches keys to
// fields: exact name first, then case-folded. An unknown key returns -1
// and the caller must Skip its value. seen records the members this
// object has set; a second one is ErrDuplicateMember. names must hold at
// most 64 printable-ASCII members that are distinct under case folding.
//
// Members usually arrive in declaration order, so Key first tries the
// lowest unset member: if the bytes at the cursor are exactly its quoted
// name and a colon, the key is that name with no escapes, and an exact
// match is the one encoding/json selects (no two names are equal). The
// member is unset, so the hit cannot be a duplicate. Anything else
// (whitespace, another order, other case, escapes) takes the general
// path below.
func (r *Reader) Key(names []string, seen *uint64) int {
	if r.err != nil {
		return -1
	}
	if next := bits.TrailingZeros64(^*seen); next < len(names) {
		n, b := names[next], r.buf[r.pos:]
		if len(b) >= len(n)+3 && b[0] == '"' && string(b[1:1+len(n)]) == n && b[1+len(n)] == '"' && b[2+len(n)] == ':' {
			r.pos += len(n) + 3
			*seen |= 1 << next
			return next
		}
	}
	if r.peek() != '"' {
		r.syntax("looking for beginning of object key string")
		return -1
	}
	start := r.pos
	plain := r.stringToken()
	end := r.pos
	if r.err != nil {
		return -1
	}
	if r.peek() != ':' {
		r.syntax("after object key")
		return -1
	}
	r.pos++
	i := -1
	switch {
	case len(names) == 0:
	case plain:
		i = matchPlain(names, r.buf[start+1:end-1])
	default:
		i = matchFolded(names, r.unquote(r.buf[start:end]))
	}
	if i >= 0 {
		if *seen&(1<<i) != 0 {
			r.fail(fmt.Errorf("%w: %q", ErrDuplicateMember, names[i]))
			return -1
		}
		*seen |= 1 << i
	}
	return i
}

// matchPlain matches a printable-ASCII key; folding ASCII is folding
// case, since no ASCII letter shares a fold set with another ASCII byte.
func matchPlain(names []string, key []byte) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if len(n) != len(key) {
			continue
		}
		j := 0
		for ; j < len(key); j++ {
			a, b := key[j], n[j]
			if a != b && !(a|0x20 == b|0x20 && 'a' <= a|0x20 && a|0x20 <= 'z') {
				break
			}
		}
		if j == len(key) {
			return i
		}
	}
	return -1
}

// matchFolded matches a decoded key: encoding/json's folded-name lookup
// is equivalent to strings.EqualFold (Unicode simple folding, so "ſeed"
// selects "seed").
func matchFolded(names []string, key string) int {
	for i, n := range names {
		if key == n {
			return i
		}
	}
	for i, n := range names {
		if strings.EqualFold(key, n) {
			return i
		}
	}
	return -1
}

// Str reads a string value; null reads as "".
func (r *Reader) Str() string {
	if r.err != nil {
		return ""
	}
	switch c := r.peek(); c {
	case '"':
		start := r.pos
		if r.stringToken() {
			return string(r.buf[start+1 : r.pos-1])
		}
		if r.err != nil {
			return ""
		}
		return r.unquote(r.buf[start:r.pos])
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, "string")
	}
	return ""
}

// Bool reads a bool value; null reads as false.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	switch c := r.peek(); c {
	case 't':
		r.literal("true")
		return r.err == nil
	case 'f':
		r.literal("false")
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, "bool")
	}
	return false
}

// numberToken consumes a number value and returns its token, or nil on
// null or an error.
func (r *Reader) numberToken(want string) []byte {
	if r.err != nil {
		return nil
	}
	c := r.peek()
	switch {
	case c == '-' || isDigit(c):
		start := r.pos
		r.number()
		if r.err != nil {
			return nil
		}
		return r.buf[start:r.pos]
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch(c, want)
	}
	return nil
}

// Int64 reads an integer value; null reads as 0. A fraction, an exponent
// or a value outside int64 is an error, as strconv.ParseInt judges it.
//
// The common token, an optional minus sign and 1–18 digits with no
// leading zero, is parsed while it is scanned: it cannot overflow, and it
// is the whole number token when the byte after it is none of a digit,
// '.', 'e' or 'E'. Any other token (null, 19 or more digits, a fraction,
// an exponent, a leading zero, a bare minus sign) is scanned by
// numberToken and judged by strconv.ParseInt.
func (r *Reader) Int64() int64 {
	if r.err != nil {
		return 0
	}
	if c := r.peek(); c == '-' || isDigit(c) {
		b, i := r.buf, r.pos
		if c == '-' {
			i++
		}
		start := i
		var n int64
		for i < len(b) && i-start < 18 && isDigit(b[i]) {
			n = n*10 + int64(b[i]-'0')
			i++
		}
		digits := i - start
		if digits > 0 && (digits == 1 || b[start] != '0') &&
			(i == len(b) || !isDigit(b[i]) && b[i] != '.' && b[i] != 'e' && b[i] != 'E') {
			r.pos = i
			if c == '-' {
				n = -n
			}
			return n
		}
	}
	tok := r.numberToken("int64")
	if tok == nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		r.fail(fmt.Errorf("json: cannot decode number %s into int64 at offset %d", tok, r.pos))
	}
	return n
}

// Int reads an integer value that must fit an int; null reads as 0.
func (r *Reader) Int() int {
	n := r.Int64()
	if int64(int(n)) != n {
		r.fail(fmt.Errorf("json: cannot decode number %d into int at offset %d", n, r.pos))
		return 0
	}
	return int(n)
}

// Float64 reads a number value; null reads as 0. A value outside float64
// is an error, as strconv.ParseFloat judges it.
func (r *Reader) Float64() float64 {
	tok := r.numberToken("float64")
	if tok == nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.fail(fmt.Errorf("json: cannot decode number %s into float64 at offset %d", tok, r.pos))
		return 0
	}
	return f
}

// Skip consumes one value of any kind, checking its syntax and the
// nesting limit, for a member the caller does not know.
func (r *Reader) Skip() {
	if r.err != nil {
		return
	}
	base := len(r.stack)
	for {
		switch c := r.peek(); {
		case c == '{':
			r.push('}')
		case c == '[':
			r.push(']')
		case c == '"':
			r.stringToken()
		case c == 't':
			r.literal("true")
		case c == 'f':
			r.literal("false")
		case c == 'n':
			r.literal("null")
		case c == '-' || isDigit(c):
			r.number()
		default:
			r.syntax("looking for beginning of value")
		}
		// Close every container that has ended, until one has another
		// item (whose value the next iteration reads) or Skip's own value
		// is complete.
		for {
			if r.err != nil || len(r.stack) == base {
				return
			}
			if r.More() {
				break
			}
		}
		if r.stack[len(r.stack)-1] == '}' {
			var none uint64
			r.Key(nil, &none)
		}
	}
}

// Truncated reports whether b ends before its first JSON value is known
// to be complete, as encoding/json's Decoder judges it when a read fails
// after the bytes in b: an object or array is complete at its closing
// bracket, but a top-level scalar only once a byte follows it. A value
// complete within b decodes even though the read failed; a truncated one
// reports the read's error.
func Truncated(b []byte) bool {
	r := Reader{buf: b}
	c := r.peek()
	r.Skip()
	if errors.Is(r.err, io.EOF) || errors.Is(r.err, io.ErrUnexpectedEOF) {
		return true
	}
	return r.err == nil && c != '{' && c != '[' && r.pos == len(b)
}
