package gen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Body is the JSON a request is POSTed with.
func (r Request) Body() []byte {
	var v any
	if r.Path == "/query" {
		v = struct {
			Goal string `json:"goal"`
		}{r.Goal}
	} else {
		v = struct {
			Facts []string `json:"facts"`
		}{[]string{r.Fact}}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings always marshal
	}
	return b
}

// The parts of the answers the benchmark reads. Everything is decoded
// by encoding/json; nothing depends on how the server lays its bytes
// out.
type queryAnswer struct {
	Answers [][]string `json:"answers"`
	Count   *int       `json:"count"`
	Partial bool       `json:"partial"`
}

// queryHeader is queryAnswer without the rows: the decoder still walks
// and validates the whole document but builds no tuples.
type queryHeader struct {
	Count   *int `json:"count"`
	Partial bool `json:"partial"`
}

type mutationAnswer struct {
	Seq *uint64 `json:"seq"`
}

// Check compares one answer with the oracle. Every answer has its
// status, count and partial flag checked; a full check also compares
// the rows as a set. For a mutation it returns the acknowledged
// sequence number.
func (r Request) Check(status int, answer []byte, full bool) (seq uint64, err error) {
	what := r.Path + " " + r.Goal + r.Fact
	if status != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", what, status, firstLine(answer))
	}
	if r.Path != "/query" {
		var m mutationAnswer
		if err := json.Unmarshal(answer, &m); err != nil {
			return 0, fmt.Errorf("%s: undecodable answer: %w", what, err)
		}
		if m.Seq == nil {
			return 0, fmt.Errorf("%s: answer carries no seq", what)
		}
		return *m.Seq, nil
	}
	var a queryAnswer
	if full {
		err = json.Unmarshal(answer, &a)
	} else {
		var h queryHeader
		err = json.Unmarshal(answer, &h)
		a.Count, a.Partial = h.Count, h.Partial
	}
	switch {
	case err != nil:
		return 0, fmt.Errorf("%s: undecodable answer: %w", what, err)
	case a.Partial:
		return 0, fmt.Errorf("%s: partial answer", what)
	case a.Count == nil:
		return 0, fmt.Errorf("%s: answer carries no count", what)
	case *a.Count != len(r.Want):
		return 0, fmt.Errorf("%s: count %d, the oracle has %d rows", what, *a.Count, len(r.Want))
	case full && !SameRows(a.Answers, r.Want):
		return 0, fmt.Errorf("%s: the %d rows differ from the oracle's", what, len(a.Answers))
	}
	return 0, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200]
	}
	return strings.ReplaceAll(s, "\n", " ")
}
