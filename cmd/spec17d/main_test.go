package main

import (
	"errors"
	"flag"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	var buf strings.Builder
	cfg, err := parseFlags(nil, &buf)
	if err != nil {
		t.Fatalf("parseFlags() = %v; stderr:\n%s", err, buf.String())
	}
	if cfg.addr != ":8417" {
		t.Errorf("addr = %q, want :8417", cfg.addr)
	}
	if !cfg.trace {
		t.Error("trace should default to true")
	}
	if cfg.traceRing != 256 {
		t.Errorf("traceRing = %d, want 256", cfg.traceRing)
	}
	if cfg.traceSlow != 0 {
		t.Errorf("traceSlow = %v, want 0", cfg.traceSlow)
	}
	if cfg.pprofAddr != "" {
		t.Errorf("pprofAddr = %q, want empty", cfg.pprofAddr)
	}
	if cfg.logLevel != slog.LevelInfo {
		t.Errorf("logLevel = %v, want info", cfg.logLevel)
	}
	if cfg.drain != 30*time.Second {
		t.Errorf("drain = %v, want 30s", cfg.drain)
	}
}

// TestParseFlagsJobs: spec17d has no async jobs, so each former job
// flag is an unknown flag, which main exits 2 on, and stderr names it.
func TestParseFlagsJobs(t *testing.T) {
	for _, args := range [][]string{{"-jobs=false"}, {"-max-jobs", "16"}, {"-job-workers", "1"}} {
		var buf strings.Builder
		_, err := parseFlags(args, &buf)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("parseFlags(%v) = %v, want a parse error", args, err)
			continue
		}
		if name := strings.SplitN(args[0], "=", 2)[0]; !strings.Contains(buf.String(), name) {
			t.Errorf("parseFlags(%v) stderr does not name %s:\n%s", args, name, buf.String())
		}
	}
}

func TestParseFlagsValid(t *testing.T) {
	var buf strings.Builder
	cfg, err := parseFlags([]string{
		"-trace=false", "-trace-ring", "64", "-trace-slow", "1.5s",
		"-pprof-addr", "localhost:6060", "-log-level", "debug",
		"-store", "/tmp/s.json", "-drain", "5s",
	}, &buf)
	if err != nil {
		t.Fatalf("parseFlags() = %v; stderr:\n%s", err, buf.String())
	}
	if cfg.trace {
		t.Error("trace = true, want false")
	}
	if cfg.traceRing != 64 {
		t.Errorf("traceRing = %d, want 64", cfg.traceRing)
	}
	if cfg.traceSlow != 1500*time.Millisecond {
		t.Errorf("traceSlow = %v, want 1.5s", cfg.traceSlow)
	}
	if cfg.pprofAddr != "localhost:6060" {
		t.Errorf("pprofAddr = %q", cfg.pprofAddr)
	}
	if cfg.logLevel != slog.LevelDebug {
		t.Errorf("logLevel = %v, want debug", cfg.logLevel)
	}
	if cfg.storePath != "/tmp/s.json" || cfg.drain != 5*time.Second {
		t.Errorf("storePath = %q, drain = %v", cfg.storePath, cfg.drain)
	}
}

// TestParseFlagsWebhookTimeoutRemoved: spec17d sends no
// callbacks, so -webhook-timeout is an unknown flag, which main exits
// 2 on, and stderr names it.
func TestParseFlagsWebhookTimeoutRemoved(t *testing.T) {
	var buf strings.Builder
	_, err := parseFlags([]string{"-webhook-timeout", "5s"}, &buf)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-webhook-timeout 5s) = %v, want a parse error", err)
	}
	if !strings.Contains(buf.String(), "-webhook-timeout") {
		t.Errorf("stderr does not name -webhook-timeout:\n%s", buf.String())
	}
}

// TestParseFlagsInvalidDuration checks the contract main exits 2 on:
// a malformed duration is an error whose stderr output names the
// offending flag, so the operator sees which of a dozen duration
// flags to fix.
func TestParseFlagsInvalidDuration(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-trace-slow", "fast"}, "-trace-slow"},
		{[]string{"-drain", "10"}, "-drain"}, // bare number: missing unit
		{[]string{"-read-timeout", "xx"}, "-read-timeout"},
	} {
		var buf strings.Builder
		_, err := parseFlags(tc.args, &buf)
		if err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", tc.args)
			continue
		}
		if errors.Is(err, flag.ErrHelp) {
			t.Errorf("parseFlags(%v) = ErrHelp, want parse error", tc.args)
		}
		if !strings.Contains(buf.String(), tc.flag) {
			t.Errorf("parseFlags(%v) stderr does not name %s:\n%s", tc.args, tc.flag, buf.String())
		}
	}
}

// TestParseFlagsInvalidAdmission checks that negative admission
// limits are rejected at parse time (exit 2 in main) with stderr
// naming the offending flag, instead of configuring a nonsensical
// limiter.
func TestParseFlagsInvalidAdmission(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-rate-limit", "-1"}, "-rate-limit"},
		{[]string{"-burst", "-0.5"}, "-burst"},
		{[]string{"-max-inflight", "-2"}, "-max-inflight"},
		{[]string{"-request-timeout", "-3s"}, "-request-timeout"},
	} {
		var buf strings.Builder
		_, err := parseFlags(tc.args, &buf)
		if err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", tc.args)
			continue
		}
		if errors.Is(err, flag.ErrHelp) {
			t.Errorf("parseFlags(%v) = ErrHelp, want validation error", tc.args)
		}
		if !strings.Contains(buf.String(), tc.flag) {
			t.Errorf("parseFlags(%v) stderr does not name %s:\n%s", tc.args, tc.flag, buf.String())
		}
	}
}

// Valid admission flags land in the config verbatim.
func TestParseFlagsAdmission(t *testing.T) {
	var buf strings.Builder
	cfg, err := parseFlags([]string{
		"-rate-limit", "2.5", "-burst", "10",
		"-max-inflight", "32",
		"-request-timeout", "45s",
	}, &buf)
	if err != nil {
		t.Fatalf("parseFlags() = %v; stderr:\n%s", err, buf.String())
	}
	if cfg.rateLimit != 2.5 || cfg.burst != 10 {
		t.Errorf("rateLimit = %v, burst = %v", cfg.rateLimit, cfg.burst)
	}
	if cfg.maxInflt != 32 {
		t.Errorf("maxInflt = %d, want 32", cfg.maxInflt)
	}
	if cfg.requestTO != 45*time.Second {
		t.Errorf("requestTO = %v, want 45s", cfg.requestTO)
	}
}

// -insight defaults to an enabled drift monitor and lands in the
// config verbatim. The removed -insight-interval (the shed-spike
// tick), -insight-ring and -slo-latency-ms are unknown flags, which
// main exits 2 on, with stderr naming the offending flag.
func TestParseFlagsInsight(t *testing.T) {
	var buf strings.Builder
	cfg, err := parseFlags(nil, &buf)
	if err != nil {
		t.Fatalf("parseFlags() = %v; stderr:\n%s", err, buf.String())
	}
	if !cfg.insight {
		t.Error("insight should default to true")
	}

	cfg, err = parseFlags([]string{"-insight=false"}, &buf)
	if err != nil {
		t.Fatalf("parseFlags() = %v; stderr:\n%s", err, buf.String())
	}
	if cfg.insight {
		t.Error("insight = true, want false")
	}

	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-insight-interval", "5s"}, "-insight-interval"}, // removed with the event ring
		{[]string{"-insight-ring", "60"}, "-insight-ring"},         // removed with the history rings
		{[]string{"-slo-latency-ms", "500"}, "-slo-latency-ms"},    // removed: burn rates are PromQL over /metrics
	} {
		var buf strings.Builder
		_, err := parseFlags(tc.args, &buf)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("parseFlags(%v) = %v, want a parse error", tc.args, err)
			continue
		}
		if !strings.Contains(buf.String(), "flag provided but not defined: "+tc.flag) {
			t.Errorf("parseFlags(%v) stderr does not reject %s as unknown:\n%s", tc.args, tc.flag, buf.String())
		}
	}
}

func TestParseFlagsInvalidLogLevel(t *testing.T) {
	var buf strings.Builder
	_, err := parseFlags([]string{"-log-level", "loud"}, &buf)
	if err == nil {
		t.Fatal("parseFlags succeeded, want error")
	}
	if !strings.Contains(buf.String(), "-log-level") {
		t.Errorf("stderr does not name -log-level:\n%s", buf.String())
	}
}

func TestParseFlagsHelp(t *testing.T) {
	var buf strings.Builder
	_, err := parseFlags([]string{"-h"}, &buf)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-h) = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(buf.String(), "-trace-slow") {
		t.Errorf("usage output missing -trace-slow:\n%s", buf.String())
	}
}
