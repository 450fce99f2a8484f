// Package network implements the DBMS's pgwire-flavoured message protocol.
// A packet carries one or more framed messages; like PostgreSQL's simple
// query protocol, several queries can arrive in a single packet, which is
// why the networking OU's input features are only known after the buffer
// has been fully inspected (paper §3.1).
package network

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message types.
const (
	// MsgQuery carries one SQL statement (client -> server).
	MsgQuery byte = 'Q'
	// MsgResult carries an encoded result set (server -> client).
	MsgResult byte = 'R'
	// MsgComplete reports a DML completion with an affected count.
	MsgComplete byte = 'C'
	// MsgError carries an error string.
	MsgError byte = 'E'
)

// Message is one framed protocol message.
type Message struct {
	Type    byte
	Payload []byte
}

// frame: [type:1][len:4 big-endian][payload:len]
const headerBytes = 5

// Encode frames messages into one packet.
func Encode(msgs ...Message) []byte {
	var total int
	for _, m := range msgs {
		total += headerBytes + len(m.Payload)
	}
	out := make([]byte, 0, total)
	for _, m := range msgs {
		start := len(out)
		out = append(AppendHeader(out, m.Type), m.Payload...)
		SetLength(out, start)
	}
	return out
}

// AppendHeader starts a message of the given type at the end of out, for a
// sender that renders the payload in place: it appends the payload and then
// calls SetLength with the offset the header went in at.
func AppendHeader(out []byte, typ byte) []byte {
	return append(out, typ, 0, 0, 0, 0)
}

// SetLength closes the message whose header is at out[start:] and whose
// payload runs to the end of out.
func SetLength(out []byte, start int) {
	binary.BigEndian.PutUint32(out[start+1:], uint32(len(out)-start-headerBytes))
}

// EncodeQuery builds a single-query packet.
func EncodeQuery(sql string) []byte {
	return Encode(Message{Type: MsgQuery, Payload: []byte(sql)})
}

// EncodeScript builds one packet carrying multiple query messages — the
// PostgreSQL multi-statement pattern the paper's FEATURES-after-execution
// design exists for.
func EncodeScript(sqls ...string) []byte {
	msgs := make([]Message, len(sqls))
	for i, q := range sqls {
		msgs[i] = Message{Type: MsgQuery, Payload: []byte(q)}
	}
	return Encode(msgs...)
}

// ErrMalformed reports an undecodable packet.
var ErrMalformed = errors.New("network: malformed packet")

// Decode parses a packet into its messages.
func Decode(packet []byte) ([]Message, error) {
	var out []Message
	i := 0
	for i < len(packet) {
		if i+headerBytes > len(packet) {
			return nil, fmt.Errorf("%w: truncated header at %d", ErrMalformed, i)
		}
		typ := packet[i]
		n := int(binary.BigEndian.Uint32(packet[i+1 : i+headerBytes]))
		i += headerBytes
		if i+n > len(packet) {
			return nil, fmt.Errorf("%w: truncated payload at %d", ErrMalformed, i)
		}
		out = append(out, Message{Type: typ, Payload: packet[i : i+n]})
		i += n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty packet", ErrMalformed)
	}
	return out, nil
}

// QuoteString renders a string as a SQL literal with quote escaping, for
// workload generators that inline parameters into query text.
func QuoteString(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(append(out, '\''))
}
