package jobs

// Push delivery, half two: webhook callbacks. A job submitted with a
// webhook URL gets its terminal record POSTed there, with bounded
// retry and exponential backoff. Delivery state (delivered, attempt
// count) is part of the job record and checkpointed, so a crash
// between completion and delivery redelivers at the next boot —
// at-least-once, never silently zero times.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// webhookAttempts bounds delivery attempts per terminal transition.
const webhookAttempts = 5

// webhookBackoff is the first retry delay; it doubles per attempt,
// capped at 30s.
const webhookBackoff = 250 * time.Millisecond

// WebhookConfig bounds terminal-state callback delivery.
type WebhookConfig struct {
	// Timeout bounds one delivery attempt. <= 0 defaults to 5s.
	Timeout time.Duration
	// Disabled turns webhook delivery off entirely (jobs still record
	// the URL; nothing is sent).
	Disabled bool
	// Client overrides the HTTP client (tests). Nil uses a plain
	// http.Client; per-attempt deadlines come from Timeout.
	Client *http.Client
	// backoff is webhookBackoff, or less in tests.
	backoff time.Duration
}

func (c WebhookConfig) withDefaults() WebhookConfig {
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.backoff <= 0 {
		c.backoff = webhookBackoff
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// webhookPayload is what lands at the callback URL.
type webhookPayload struct {
	// Event is "job." + the terminal state, e.g. "job.done".
	Event string `json:"event"`
	Job   Job    `json:"job"`
}

// deliverAsync runs one delivery loop in the background, tracked so
// Close/Kill wait for in-flight deliveries (their contexts end with
// the manager's).
func (m *Manager) deliverAsync(j Job) {
	if m.cfg.Webhook.Disabled || j.Spec.Webhook == "" {
		return
	}
	m.whWG.Add(1)
	go func() {
		defer m.whWG.Done()
		m.deliver(j)
	}()
}

// deliver POSTs the job's terminal record, retrying with exponential
// backoff up to webhookAttempts. Success is any 2xx. A failed attempt
// logs at info; running out of attempts logs one warn.
func (m *Manager) deliver(j Job) {
	body, err := json.Marshal(webhookPayload{Event: "job." + string(j.State), Job: j})
	if err != nil {
		m.cfg.Log.Error("jobs: webhook payload marshal", "job", j.ID, "error", err.Error())
		return
	}
	wh := m.cfg.Webhook
	backoff := wh.backoff
	attempts := 0
	var lastErr error
	for attempts < webhookAttempts {
		if m.ctx.Err() != nil {
			break // shutdown; redelivery happens at next boot
		}
		attempts++
		err := m.post(j.Spec.Webhook, body, wh)
		lastErr = err
		if err == nil {
			m.met.webhooks.With("ok").Inc()
			m.recordDelivery(j.ID, attempts, true)
			return
		}
		m.cfg.Log.Info("jobs: webhook delivery failed",
			"job", j.ID, "attempt", attempts, "error", err.Error())
		if attempts < webhookAttempts {
			m.met.webhooks.With("retry").Inc()
			t := time.NewTimer(backoff)
			select {
			case <-m.ctx.Done():
				t.Stop()
			case <-t.C:
			}
			if backoff *= 2; backoff > 30*time.Second {
				backoff = 30 * time.Second
			}
		}
	}
	m.met.webhooks.With("failed").Inc()
	m.recordDelivery(j.ID, attempts, false)
	// Exhausted (as opposed to interrupted by shutdown, which redelivers
	// at next boot): surface the terminal loss to whoever is listening.
	if attempts < webhookAttempts {
		return
	}
	m.cfg.Log.Warn("jobs: webhook exhausted", "job", j.ID, "url", j.Spec.Webhook,
		"attempts", attempts, "error", lastErr.Error())
	if m.cfg.OnWebhookExhausted != nil {
		m.cfg.OnWebhookExhausted(j.ID, j.Spec.Webhook, attempts, lastErr)
	}
}

// post runs one delivery attempt under its own deadline.
func (m *Manager) post(url string, body []byte, wh WebhookConfig) error {
	ctx, cancel := context.WithTimeout(m.ctx, wh.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("User-Agent", "spec17d-webhook/1")
	resp, err := wh.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// recordDelivery persists the delivery outcome on the job record.
func (m *Manager) recordDelivery(id string, attempts int, ok bool) {
	m.mu.Lock()
	if t, live := m.jobs[id]; live {
		t.job.WebhookAttempts += attempts
		t.job.WebhookDelivered = ok
	}
	m.mu.Unlock()
	m.checkpoint()
}
