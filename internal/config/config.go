// Package config loads the evald service configuration from the
// environment. Every knob is an EVALD_-prefixed variable with a sane
// default, so `evald` with no environment at all serves the small FIR
// benchmark on :8080 — and a container deployment configures everything
// without flags or files.
package config

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/simpool"
)

// Tenant is one API-key principal of the service.
type Tenant struct {
	// Name identifies the tenant in request logs and quota errors.
	Name string
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-API-Key: <key>`.
	Key string
	// Quota bounds the tenant's concurrent in-flight requests; zero
	// means unlimited. A request beyond the quota is refused with 429
	// rather than queued, so one tenant cannot occupy the whole
	// admission pipeline.
	Quota int
	// AllowDegraded opts the tenant into brownout serving: under
	// overload (shed) or simulator outage (breaker open) its requests
	// get a surrogate-only kriging answer flagged degraded:true instead
	// of a 503. Set by the 4th policy field of EVALD_API_KEYS.
	AllowDegraded bool
}

// Config is the evald service configuration.
type Config struct {
	// Addr is the listen address (EVALD_ADDR, default ":8080").
	Addr string
	// Bench selects the simulator behind the service: one of the
	// benchmark specs — fir, iir, fft, hevc (EVALD_BENCH, default
	// "fir").
	Bench string
	// Size is the benchmark size, "small" or "full" (EVALD_SIZE,
	// default "small").
	Size string
	// Seed is the simulator seed (EVALD_SEED, default 1).
	Seed uint64
	// Workers bounds the per-request worker pool of /v1/batch
	// (EVALD_WORKERS, default 0 = GOMAXPROCS).
	Workers int
	// MaxSims bounds the simulations in flight across ALL requests —
	// the engine admission semaphore (EVALD_MAX_SIMS, default 0 =
	// unbounded).
	MaxSims int
	// StateDir, when non-empty, makes the support store durable
	// (EVALD_STATE_DIR): simulated results survive restarts via the
	// write-ahead log, so a redeployed service resumes with its cache
	// warm.
	StateDir string
	// D is the kriging neighbourhood radius; 0 disables interpolation
	// (EVALD_D, default 3).
	D float64
	// NnMin is the minimum-neighbour threshold (EVALD_NNMIN, default 1).
	NnMin int
	// MaxSupport caps the kriging support (EVALD_MAX_SUPPORT, default
	// 10).
	MaxSupport int
	// DisableCoalescing turns off single-flight simulation coalescing
	// (EVALD_DISABLE_COALESCING=1) — an ablation/debug switch, not an
	// operating mode.
	DisableCoalescing bool
	// Tenants is the API-key table (EVALD_API_KEYS), parsed from
	// comma-separated name:key[:quota[:policy]] specs, e.g.
	// "alice:s3cret:8,bob:hunter2:0:degraded". The quota part may be
	// omitted or empty (unlimited); the policy field "degraded" opts the
	// tenant into brownout serving. An empty table disables
	// authentication: every request runs as the anonymous tenant —
	// development mode only.
	Tenants []Tenant
	// DrainGrace bounds how long a SIGTERM drain waits for in-flight
	// requests before the server is torn down anyway
	// (EVALD_DRAIN_GRACE, default 30s).
	DrainGrace time.Duration
	// RequestTimeout is the default per-request deadline when the
	// client sends none (EVALD_REQUEST_TIMEOUT, default 60s; 0 means no
	// default deadline).
	RequestTimeout time.Duration
	// SimWorkers, when non-empty, replaces the in-process simulator
	// with the remote worker pool (EVALD_SIM_WORKERS): comma-separated
	// url[:key] specs, e.g.
	// "http://simd1:9090:s3cret,http://simd2:9090:s3cret". The key is
	// taken after the URL's last colon; an all-digit suffix is read as a
	// port, so purely numeric keys are not representable. Empty (the
	// default) keeps simulation in-process — the fast path.
	SimWorkers []simpool.WorkerSpec
	// SimHedge is the pool's straggler hedge delay (EVALD_SIM_HEDGE,
	// default 0 = the pool's built-in 100ms).
	SimHedge time.Duration
	// SimWorkerCap bounds the requests outstanding on one remote worker
	// (EVALD_SIM_WORKER_CAP, default 0 = the pool's built-in 4); match
	// it to the workers' SIMD_CAPACITY.
	SimWorkerCap int
	// Breaker enables the circuit breaker around the simulator
	// (EVALD_BREAKER=1, default off): a rolling error window trips it
	// open so a dead simulation tier fails fast instead of burning
	// deadlines, with half-open probes readmitting traffic on recovery.
	Breaker bool
	// BreakerCooldown is how long an open breaker waits before probing
	// (EVALD_BREAKER_COOLDOWN, default 5s).
	BreakerCooldown time.Duration
	// BreakerThreshold is the failure fraction of the rolling window
	// that trips the breaker (EVALD_BREAKER_THRESHOLD, default 0.5).
	BreakerThreshold float64
	// DisableShedding turns off deadline-aware load shedding
	// (EVALD_DISABLE_SHED=1) — an ablation/debug switch: doomed
	// requests then park on the admission queue and expire there.
	DisableShedding bool
}

// FromEnv loads the configuration from the process environment.
func FromEnv() (Config, error) { return FromGetenv(os.Getenv) }

// FromGetenv loads the configuration through an explicit lookup
// function, so tests inject environments without mutating the process.
func FromGetenv(getenv func(string) string) (Config, error) {
	cfg := Config{
		Addr:           ":8080",
		Bench:          "fir",
		Size:           "small",
		Seed:           1,
		D:              3,
		NnMin:          1,
		MaxSupport:     10,
		DrainGrace:     30 * time.Second,
		RequestTimeout: 60 * time.Second,
	}
	if v := getenv("EVALD_ADDR"); v != "" {
		cfg.Addr = v
	}
	if v := getenv("EVALD_BENCH"); v != "" {
		cfg.Bench = v
	}
	if v := getenv("EVALD_SIZE"); v != "" {
		if v != "small" && v != "full" {
			return cfg, fmt.Errorf("config: EVALD_SIZE %q (want small or full)", v)
		}
		cfg.Size = v
	}
	var err error
	if cfg.Seed, err = uintVar(getenv, "EVALD_SEED", cfg.Seed); err != nil {
		return cfg, err
	}
	if cfg.Workers, err = intVar(getenv, "EVALD_WORKERS", cfg.Workers); err != nil {
		return cfg, err
	}
	if cfg.MaxSims, err = intVar(getenv, "EVALD_MAX_SIMS", cfg.MaxSims); err != nil {
		return cfg, err
	}
	cfg.StateDir = getenv("EVALD_STATE_DIR")
	if v := getenv("EVALD_D"); v != "" {
		if cfg.D, err = strconv.ParseFloat(v, 64); err != nil {
			return cfg, fmt.Errorf("config: EVALD_D %q: %w", v, err)
		}
	}
	if cfg.NnMin, err = intVar(getenv, "EVALD_NNMIN", cfg.NnMin); err != nil {
		return cfg, err
	}
	if cfg.MaxSupport, err = intVar(getenv, "EVALD_MAX_SUPPORT", cfg.MaxSupport); err != nil {
		return cfg, err
	}
	if cfg.DisableCoalescing, err = boolVar(getenv, "EVALD_DISABLE_COALESCING"); err != nil {
		return cfg, err
	}
	if cfg.Tenants, err = ParseTenants(getenv("EVALD_API_KEYS")); err != nil {
		return cfg, err
	}
	if cfg.DrainGrace, err = durVar(getenv, "EVALD_DRAIN_GRACE", cfg.DrainGrace); err != nil {
		return cfg, err
	}
	if cfg.RequestTimeout, err = durVar(getenv, "EVALD_REQUEST_TIMEOUT", cfg.RequestTimeout); err != nil {
		return cfg, err
	}
	if v := getenv("EVALD_SIM_WORKERS"); v != "" {
		if cfg.SimWorkers, err = simpool.ParseWorkerSpecs(v); err != nil {
			return cfg, fmt.Errorf("config: EVALD_SIM_WORKERS: %w", err)
		}
	}
	if cfg.SimHedge, err = durVar(getenv, "EVALD_SIM_HEDGE", cfg.SimHedge); err != nil {
		return cfg, err
	}
	if cfg.SimWorkerCap, err = intVar(getenv, "EVALD_SIM_WORKER_CAP", cfg.SimWorkerCap); err != nil {
		return cfg, err
	}
	if cfg.Breaker, err = boolVar(getenv, "EVALD_BREAKER"); err != nil {
		return cfg, err
	}
	cfg.BreakerCooldown = 5 * time.Second
	if cfg.BreakerCooldown, err = durVar(getenv, "EVALD_BREAKER_COOLDOWN", cfg.BreakerCooldown); err != nil {
		return cfg, err
	}
	cfg.BreakerThreshold = 0.5
	if cfg.BreakerThreshold, err = floatVar(getenv, "EVALD_BREAKER_THRESHOLD", cfg.BreakerThreshold); err != nil {
		return cfg, err
	}
	if cfg.DisableShedding, err = boolVar(getenv, "EVALD_DISABLE_SHED"); err != nil {
		return cfg, err
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("config: EVALD_WORKERS %d is negative", cfg.Workers)
	}
	if cfg.MaxSims < 0 {
		return cfg, fmt.Errorf("config: EVALD_MAX_SIMS %d is negative", cfg.MaxSims)
	}
	if cfg.SimWorkerCap < 0 {
		return cfg, fmt.Errorf("config: EVALD_SIM_WORKER_CAP %d is negative", cfg.SimWorkerCap)
	}
	if cfg.BreakerThreshold <= 0 || cfg.BreakerThreshold > 1 {
		return cfg, fmt.Errorf("config: EVALD_BREAKER_THRESHOLD %g (want in (0, 1])", cfg.BreakerThreshold)
	}
	return cfg, nil
}

// ParseTenants parses the EVALD_API_KEYS syntax: comma-separated
// name:key[:quota[:policy]] specs. The quota field may be empty
// (unlimited) when a policy follows, and the only policy today is
// "degraded" — the tenant-wide brownout opt-in. Duplicate names or keys
// are rejected — a shared key would make per-tenant quotas and request
// attribution meaningless.
func ParseTenants(s string) ([]Tenant, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Tenant
	names := map[string]bool{}
	keys := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("config: tenant %q (want name:key[:quota[:policy]])", part)
		}
		t := Tenant{Name: strings.TrimSpace(fields[0]), Key: strings.TrimSpace(fields[1])}
		if t.Name == "" || t.Key == "" {
			return nil, fmt.Errorf("config: tenant %q has an empty name or key", part)
		}
		if len(fields) >= 3 {
			if q := strings.TrimSpace(fields[2]); q != "" {
				n, err := strconv.Atoi(q)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("config: tenant %q quota %q (want a non-negative integer)", t.Name, fields[2])
				}
				t.Quota = n
			}
		}
		if len(fields) == 4 {
			switch policy := strings.TrimSpace(fields[3]); policy {
			case "degraded":
				t.AllowDegraded = true
			case "":
				// name:key:quota: — a trailing colon reads as a typo, not
				// an intentional empty policy.
				return nil, fmt.Errorf("config: tenant %q has an empty policy field", t.Name)
			default:
				return nil, fmt.Errorf("config: tenant %q policy %q (want \"degraded\")", t.Name, policy)
			}
		}
		if names[t.Name] {
			return nil, fmt.Errorf("config: duplicate tenant name %q", t.Name)
		}
		if keys[t.Key] {
			return nil, fmt.Errorf("config: tenants share the key of %q", t.Name)
		}
		names[t.Name], keys[t.Key] = true, true
		out = append(out, t)
	}
	return out, nil
}

func intVar(getenv func(string) string, name string, def int) (int, error) {
	v := getenv(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def, fmt.Errorf("config: %s %q: %w", name, v, err)
	}
	return n, nil
}

func uintVar(getenv func(string) string, name string, def uint64) (uint64, error) {
	v := getenv(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return def, fmt.Errorf("config: %s %q: %w", name, v, err)
	}
	return n, nil
}

func boolVar(getenv func(string) string, name string) (bool, error) {
	v := getenv(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("config: %s %q: %w", name, v, err)
	}
	return b, nil
}

func floatVar(getenv func(string) string, name string, def float64) (float64, error) {
	v := getenv(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return def, fmt.Errorf("config: %s %q: %w", name, v, err)
	}
	return f, nil
}

func durVar(getenv func(string) string, name string, def time.Duration) (time.Duration, error) {
	v := getenv(name)
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return def, fmt.Errorf("config: %s %q: %w", name, v, err)
	}
	if d < 0 {
		return def, fmt.Errorf("config: %s %q is negative", name, v)
	}
	return d, nil
}
