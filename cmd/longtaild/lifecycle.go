package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net"
	"net/http"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/lifecycle"
	"repro/internal/serve"
)

// storeTruth adapts the labeled context dataset into the evaluator's
// ground-truth reference: the daemon's FP budget is measured against the
// same labels the rules were trained on. A harness that harvests fresher
// truth (delayed re-scans) drives internal/lifecycle directly instead.
func storeTruth(store *dataset.Store) lifecycle.TruthFunc {
	return func(file dataset.FileHash) (bool, bool) {
		switch store.Label(file) {
		case dataset.LabelMalicious:
			return true, true
		case dataset.LabelBenign:
			return false, true
		default:
			return false, false
		}
	}
}

// loopbackURL turns the daemon's listen address into the base URL the
// lifecycle promoter reloads through — promotion rides the same
// /admin/reload path an operator would use, not a private fast path.
func loopbackURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// lifecycleHandler serves /admin/lifecycle:
//
//	GET  — the manager's status document (state machine position, gate
//	       configuration, aggregated shadow scoreboard);
//	POST — a rule-set JSON body becomes the next challenger: it starts
//	       shadowing immediately and a background Run drives it to
//	       promotion (through the zero-downtime reload) or rejection.
func lifecycleHandler(ctx context.Context, m *lifecycle.Manager, policy classify.ConflictPolicy) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(m.Status())
		case http.MethodPost:
			body, err := serve.ReadBody(w, r)
			if err != nil {
				http.Error(w, "read body: "+err.Error(), serve.BodyErrorStatus(err))
				return
			}
			clf, err := serve.LoadRules(bytes.NewReader(body), policy)
			if err != nil {
				http.Error(w, "bad challenger rules: "+err.Error(), http.StatusBadRequest)
				return
			}
			label, err := m.BeginShadow(clf)
			if err != nil {
				// A challenger is already shadowing: one at a time keeps the
				// scoreboard attributable.
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			go func() {
				st, err := m.Run(ctx)
				if err != nil {
					log.Printf("longtaild: lifecycle %s: %v", label, err)
					return
				}
				log.Printf("longtaild: lifecycle %s resolved: %s", label, st)
			}()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"challenger": label,
				"state":      lifecycle.StateShadowing.String(),
			})
		default:
			http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
		}
	}
}
