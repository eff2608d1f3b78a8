package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"boresight/internal/fleet"
)

// client drives one binary-protocol connection to the fleet server.
type client struct {
	conn   net.Conn
	parser fleet.FrameParser
	rbuf   []byte
	req    []byte
	// Specs encoded and frames parsed, for the per-item codec costs.
	encoded, decoded atomic.Int64
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl := &client{conn: conn, rbuf: make([]byte, 64<<10)}
	// Result-boundary telemetry only at batch end; the server's default
	// live cadence while a batch runs.
	if _, err := conn.Write(fleet.AppendHello(nil, 0, 65535, 0, 0)); err != nil {
		conn.Close()
		return nil, err
	}
	typ, payload, _, err := cl.readFrame(nil, -1, 0)
	if err == nil && typ != fleet.FrameHello {
		err = fmt.Errorf("handshake answered with frame %#x", typ)
	}
	if err == nil {
		var v byte
		if v, _, _, _, _, err = fleet.DecodeHello(payload); err == nil && v != fleet.WireVersion {
			err = fmt.Errorf("server speaks wire version %d, want %d", v, fleet.WireVersion)
		}
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return cl, nil
}

// readFrame returns the next frame. Parsing a frame that is already
// buffered is traced as fleet.decode; the wait for bytes is not. The
// returned decode span is still open: the caller ends it once it has
// decoded the payload.
func (c *client) readFrame(tr *tracer, parent int32, id int64) (byte, []byte, int32, error) {
	for {
		sp := tr.begin("fleet.decode", parent, id)
		if typ, payload, ok := c.parser.Next(); ok {
			c.decoded.Add(1)
			return typ, payload, sp, nil
		}
		tr.end(sp)
		n, err := c.conn.Read(c.rbuf)
		if n > 0 {
			c.parser.Feed(c.rbuf[:n])
			continue
		}
		if err != nil {
			return 0, nil, -1, err
		}
	}
}

// batchReply is what one batch's reply carried.
type batchReply struct {
	ok, nonOK   int
	steps       int64
	admitted    uint32
	shed        uint32
	telemetry   int
	payloads    []byte // result payloads back to back, when kept
	sent, ended time.Time
}

// sendBatch encodes and writes the specs followed by BatchEnd.
func (c *client) sendBatch(specs []fleet.ScenarioSpec, tr *tracer, parent int32, id int64) (time.Time, error) {
	sp := tr.begin("fleet.encode", parent, id)
	c.req = c.req[:0]
	for i := range specs {
		c.req = fleet.AppendScenario(c.req, specs[i])
	}
	c.req = fleet.AppendBatchEnd(c.req, 0, 0)
	tr.end(sp)
	c.encoded.Add(int64(len(specs)))
	sent := time.Now()
	_, err := c.conn.Write(c.req)
	return sent, err
}

// readReply consumes one batch's reply up to its BatchEnd. With keep,
// the result payloads are copied out for the replay check.
func (c *client) readReply(keep bool, tr *tracer, parent int32, id int64) (batchReply, error) {
	var rep batchReply
	for {
		typ, payload, sp, err := c.readFrame(tr, parent, id)
		if err != nil {
			return rep, err
		}
		switch typ {
		case fleet.FrameResult:
			w, derr := fleet.DecodeResult(payload)
			if derr != nil {
				tr.end(sp)
				return rep, derr
			}
			if w.Status == fleet.StatusOK {
				rep.ok++
				rep.steps += int64(w.Steps)
			} else {
				rep.nonOK++
			}
			if keep {
				rep.payloads = append(rep.payloads, payload...)
			}
		case fleet.FrameTelemetry:
			rep.telemetry++
		case fleet.FrameBatchEnd:
			rep.admitted, rep.shed, err = fleet.DecodeBatchEnd(payload)
			tr.end(sp)
			rep.ended = time.Now()
			return rep, err
		}
		tr.end(sp)
	}
}

// roundTrip sends one batch and reads its reply.
func (c *client) roundTrip(specs []fleet.ScenarioSpec, keep bool, tr *tracer, id int64) (batchReply, error) {
	root := tr.begin("client.batch", -1, id)
	defer tr.end(root)
	sent, err := c.sendBatch(specs, tr, root, id)
	if err != nil {
		return batchReply{}, err
	}
	rep, err := c.readReply(keep, tr, root, id)
	rep.sent = sent
	return rep, err
}
