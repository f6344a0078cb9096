// Package wire is a fixture stand-in for the real wire package: method
// constants exercising wiremethod, plus blocking sends for lockhold.
package wire

// Method identifies an RPC method.
type Method uint8

// RPC methods.
const (
	MethodNone Method = iota
	MethodPing
	MethodLookup // want `not seeded in sampleMessages`
	MethodDead   // want `never referenced outside its declaration`
	//hoplite:wire-local fixture: pushed outside dispatch, excluded from the corpus
	MethodLocal
)

// MethodDup collides with MethodLocal's value.
const MethodDup Method = 4 // want `duplicates the value 4 of MethodLocal`

// Message is the frame.
type Message struct{ Method Method }

// WriteMessage writes a frame (blocking I/O for the lockhold fixture).
func WriteMessage(m Message) error { return nil }

// Client is a control connection; Go and Call may write on the caller.
type Client struct{}

// Pending is one call in flight.
type Pending struct{}

// Go sends m.
func (c *Client) Go(m Message) Pending { return Pending{} }

// Call sends m and waits for the response.
func (c *Client) Call(m Message) (Message, error) { return m, nil }

// Close is not a send.
func (c *Client) Close() error { return nil }

// Peer is the server side of a connection; Notify may write on the caller.
type Peer struct{}

// Notify pushes m.
func (p *Peer) Notify(m Message) error { return nil }

func isNone(m Method) bool { return m == MethodNone }

func dispatch(m Method) {
	switch m {
	case MethodPing, MethodLookup, MethodDup:
	}
}
