package workload

import (
	"math/rand"
	"strconv"
	"strings"

	"tscout/internal/dbms"
	"tscout/internal/sim"
	"tscout/internal/storage"
	"tscout/internal/wal"
)

// TATP is the Telecom Application Transaction Processing benchmark
// (§6.1): a caller-location system where transactions find subscriber
// records either by primary key or through a secondary-index indirection
// on the subscriber number.
type TATP struct {
	// Subscribers is the subscriber count (default 2000; paper: 20M
	// tuples across four tables).
	Subscribers int
	// texts[sid] holds the texts that name subscriber sid by number, built
	// on its first use.
	texts []subscriberTexts
}

// subscriberTexts is what TATP's transactions send that names one
// subscriber by number: the number, and the two statements that look the
// subscriber up by it with the number as a string literal.
type subscriberTexts struct {
	nbr, updateLocation, selectByNbr string
}

// The statements that name a subscriber by number, before its literal.
const (
	updateLocationByNbr = "UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = "
	selectByNbr         = "SELECT s_id FROM subscriber WHERE sub_nbr = "
)

// textsOf returns sid's texts. The first call builds every subscriber's
// into one string, which the texts slice: each subscriber's number, then
// its two statements, back to back. They are the same bytes every call
// builds, which virtual time charges by length.
func (t *TATP) textsOf(sid int64) *subscriberTexts {
	if t.texts == nil {
		t.buildTexts()
	}
	return &t.texts[sid]
}

// buildTexts builds every subscriber's texts into one string of exactly
// their length and slices it. A number is letters and digits, so its
// string literal (what network.QuoteString makes of it) only wraps it in
// quotes.
func (t *TATP) buildTexts() {
	n := t.subscribers()
	size := 0
	for sid := range n {
		size += 3*nbrLen(int64(sid)) + len(updateLocationByNbr) + len(selectByNbr) + 4
	}
	var b strings.Builder
	b.Grow(size)
	var buf [24]byte
	for sid := range n {
		nbr := strconv.AppendInt(append(buf[:0], "nbr"...), int64(sid), 10)
		for len(nbr) < nbrLen(int64(sid)) {
			nbr = append(nbr, 'x')
		}
		b.Write(nbr)
		for _, stmt := range [...]string{updateLocationByNbr, selectByNbr} {
			b.WriteString(stmt)
			b.WriteByte('\'')
			b.Write(nbr)
			b.WriteByte('\'')
		}
	}
	s := b.String()
	t.texts = make([]subscriberTexts, n)
	for sid := range t.texts {
		st := &t.texts[sid]
		nl := nbrLen(int64(sid))
		st.nbr, s = s[:nl], s[nl:]
		st.updateLocation, s = s[:len(updateLocationByNbr)+nl+2], s[len(updateLocationByNbr)+nl+2:]
		st.selectByNbr, s = s[:len(selectByNbr)+nl+2], s[len(selectByNbr)+nl+2:]
	}
}

// nbrLen is the length of subNbr(sid): "nbr" and sid's digits, padded to 15.
func nbrLen(sid int64) int {
	digits := 1
	for ; sid >= 10; sid /= 10 {
		digits++
	}
	return max(3+digits, 15)
}

// Name implements Generator.
func (t *TATP) Name() string { return "tatp" }

func (t *TATP) subscribers() int {
	if t.Subscribers <= 0 {
		return 2000
	}
	return t.Subscribers
}

func subNbr(sid int64) string { return pad("nbr"+itoa(sid), 15) }

// Setup implements Generator.
func (t *TATP) Setup(srv *dbms.Server) error {
	if _, err := srv.Catalog.CreateTable("subscriber", storage.MustSchema(
		storage.Column{Name: "s_id", Kind: storage.KindInt},
		storage.Column{Name: "sub_nbr", Kind: storage.KindString, FixedBytes: 15},
		storage.Column{Name: "bit_1", Kind: storage.KindInt},
		storage.Column{Name: "msc_location", Kind: storage.KindInt},
		storage.Column{Name: "vlr_location", Kind: storage.KindInt},
	)); err != nil {
		return err
	}
	if _, err := srv.Catalog.CreateBTreeIndex("subscriber_pk", "subscriber",
		[]string{"s_id"}, []uint{32}, true); err != nil {
		return err
	}
	// The secondary indirection index of the paper's TATP description.
	if _, err := srv.Catalog.CreateHashIndex("subscriber_nbr", "subscriber",
		[]string{"sub_nbr"}, true); err != nil {
		return err
	}

	if _, err := srv.Catalog.CreateTable("access_info", storage.MustSchema(
		storage.Column{Name: "s_id", Kind: storage.KindInt},
		storage.Column{Name: "ai_type", Kind: storage.KindInt},
		storage.Column{Name: "data1", Kind: storage.KindInt},
		storage.Column{Name: "data2", Kind: storage.KindInt},
	)); err != nil {
		return err
	}
	if _, err := srv.Catalog.CreateBTreeIndex("access_info_pk", "access_info",
		[]string{"s_id", "ai_type"}, []uint{32, 4}, true); err != nil {
		return err
	}

	if _, err := srv.Catalog.CreateTable("special_facility", storage.MustSchema(
		storage.Column{Name: "s_id", Kind: storage.KindInt},
		storage.Column{Name: "sf_type", Kind: storage.KindInt},
		storage.Column{Name: "is_active", Kind: storage.KindInt},
		storage.Column{Name: "data_a", Kind: storage.KindInt},
	)); err != nil {
		return err
	}
	if _, err := srv.Catalog.CreateBTreeIndex("special_facility_pk", "special_facility",
		[]string{"s_id", "sf_type"}, []uint{32, 4}, true); err != nil {
		return err
	}

	if _, err := srv.Catalog.CreateTable("call_forwarding", storage.MustSchema(
		storage.Column{Name: "s_id", Kind: storage.KindInt},
		storage.Column{Name: "sf_type", Kind: storage.KindInt},
		storage.Column{Name: "start_time", Kind: storage.KindInt},
		storage.Column{Name: "end_time", Kind: storage.KindInt},
		storage.Column{Name: "numberx", Kind: storage.KindString, FixedBytes: 15},
	)); err != nil {
		return err
	}
	if _, err := srv.Catalog.CreateBTreeIndex("call_forwarding_pk", "call_forwarding",
		[]string{"s_id", "sf_type", "start_time"}, []uint{32, 4, 6}, true); err != nil {
		return err
	}

	rng := rand.New(sim.NewPCG(2, 0)) //tsvet:ignore seeded-source population seed and key are part of the dataset definition; the tatp_full ledger digest and Figs. 5 and 6 depend on them
	n := t.subscribers()
	// Each table's rows back to back, as bulkLoad takes them, sized up
	// front for the most rows a subscriber can have (see TPCC.Setup).
	subs := make([]storage.Value, 0, n*5)
	ai := make([]storage.Value, 0, n*4*4)
	sf := make([]storage.Value, 0, n*4*4)
	cf := make([]storage.Value, 0, n*4*5)
	for i := 0; i < n; i++ {
		sid := int64(i)
		subs = append(subs,
			iv(sid), sv(subNbr(sid)), iv(int64(rng.Intn(2))),
			iv(int64(rng.Intn(1<<16))), iv(int64(rng.Intn(1<<16))),
		)
		for a := 0; a < 1+rng.Intn(4); a++ {
			ai = append(ai, iv(sid), iv(int64(a+1)),
				iv(int64(rng.Intn(256))), iv(int64(rng.Intn(256))))
		}
		for f := 0; f < 1+rng.Intn(4); f++ {
			sf = append(sf, iv(sid), iv(int64(f+1)),
				iv(int64(rng.Intn(2))), iv(int64(rng.Intn(256))))
			if rng.Intn(2) == 0 {
				start := int64(8 * rng.Intn(3))
				cf = append(cf, iv(sid), iv(int64(f+1)),
					iv(start), iv(start+8), sv(subNbr(int64(rng.Intn(n)))))
			}
		}
	}
	// Load in a fixed table order so WAL/archive contents are identical
	// across runs (map iteration order would shuffle them).
	for _, t := range []struct {
		tbl   string
		cells []storage.Value
	}{
		{"subscriber", subs}, {"access_info", ai},
		{"special_facility", sf}, {"call_forwarding", cf},
	} {
		if err := bulkLoad(srv, t.tbl, t.cells); err != nil {
			return err
		}
	}
	return nil
}

// Txn implements Generator with the standard TATP mix.
func (t *TATP) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	sid := int64(rng.Intn(t.subscribers()))
	if err := se.BeginTxn(); err != nil {
		return nil, err
	}
	var err error
	switch p := rng.Intn(100); {
	case p < 35: // GetSubscriberData
		_, err = se.Statement("SELECT * FROM subscriber WHERE s_id = $1", iv(sid))
	case p < 45: // GetNewDestination
		_, err = se.Statement(
			"SELECT sf_type FROM special_facility WHERE s_id = $1 AND is_active = 1", iv(sid))
		if err == nil {
			_, err = se.Statement(
				"SELECT numberx FROM call_forwarding WHERE s_id = $1 AND sf_type = 1 AND start_time <= 8",
				iv(sid))
		}
	case p < 80: // GetAccessData
		_, err = se.Statement(
			"SELECT data1, data2 FROM access_info WHERE s_id = $1 AND ai_type = 1", iv(sid))
	case p < 82: // UpdateSubscriberData
		_, err = se.Statement("UPDATE subscriber SET bit_1 = $1 WHERE s_id = $2",
			iv(int64(rng.Intn(2))), iv(sid))
		if err == nil {
			_, err = se.Statement(
				"UPDATE special_facility SET data_a = $1 WHERE s_id = $2 AND sf_type = 1",
				iv(int64(rng.Intn(256))), iv(sid))
		}
	case p < 96: // UpdateLocation: secondary-index indirection by sub_nbr
		_, err = se.Statement(t.textsOf(sid).updateLocation, iv(int64(rng.Intn(1<<16))))
	case p < 98: // InsertCallForwarding
		_, err = se.Statement(t.textsOf(sid).selectByNbr)
		if err == nil {
			start := int64(8 * rng.Intn(3))
			_, err = se.Statement(
				"INSERT INTO call_forwarding VALUES ($1, 1, $2, $3, $4)",
				iv(sid), iv(start), iv(start+8), sv(t.textsOf(int64(rng.Intn(t.subscribers()))).nbr))
		}
	default: // DeleteCallForwarding
		_, err = se.Statement(
			"DELETE FROM call_forwarding WHERE s_id = $1 AND sf_type = 1 AND start_time = $2",
			iv(sid), iv(int64(8*rng.Intn(3))))
	}
	if err != nil {
		return nil, err
	}
	return se.Commit()
}
