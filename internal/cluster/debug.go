package cluster

import (
	"encoding/json"
	"net/http"
	"time"
)

// /debug/ring: the proxy's routing table as one JSON document — per
// backend its health state, current ring weight and owned share of the
// hash space, plus ring generation and probe counts. TestClusterSmoke
// reads it after killing backends; operators read it to see why traffic
// lands where it does.

// ringBackendView is one backend's row in the /debug/ring document.
type ringBackendView struct {
	Index     int     `json:"index"`
	URL       string  `json:"url"`
	State     string  `json:"state"`
	Weight    int     `json:"weight"`
	Share     float64 `json:"share"`
	Fails     int32   `json:"fails"`
	LastErr   string  `json:"last_err,omitempty"`
	LastProbe string  `json:"last_probe,omitempty"`
}

// ringView is the /debug/ring document.
type ringView struct {
	Generation int64             `json:"generation"`
	Vnodes     int               `json:"vnodes"`
	Routable   int               `json:"routable"`
	Probes     int64             `json:"probes"`
	RandomMode bool              `json:"random_route,omitempty"`
	Backends   []ringBackendView `json:"backends"`
}

func (p *Proxy) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ring := p.ring.Load()
	shares := ring.Shares()
	view := ringView{
		Generation: p.generation.Load(),
		Vnodes:     ring.Len(),
		Routable:   len(ring.Members()),
		Probes:     p.checker.probes.Load(),
		RandomMode: p.cfg.RandomRoute,
	}
	for i, b := range p.backends {
		hs := p.checker.snapshot(i)
		row := ringBackendView{
			Index:   i,
			URL:     b.name,
			State:   hs.State.String(),
			Weight:  weight(hs.State),
			Share:   shares[i],
			Fails:   hs.Fails,
			LastErr: hs.LastErr,
		}
		if !hs.LastProbe.IsZero() {
			row.LastProbe = hs.LastProbe.Format(time.RFC3339Nano)
		}
		view.Backends = append(view.Backends, row)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}
