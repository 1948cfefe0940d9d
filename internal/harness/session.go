package harness

import (
	"fmt"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/workload"
)

// Session caches workload instances and run results so experiments that
// share runs (Figures 8, 9, and 10 all use the IMDb VM sweep) execute each
// configuration once per baobench invocation.
type Session struct {
	Opts      Options
	instances map[string]*workload.Instance
	runs      map[string]*RunResult
}

// NewSession creates an experiment session.
func NewSession(opts Options) *Session {
	return &Session{Opts: opts,
		instances: make(map[string]*workload.Instance),
		runs:      make(map[string]*RunResult)}
}

// Instance returns (and caches) a workload instance by name. Recognized
// names: IMDb, Stack, Corp, IMDb-stable.
func (s *Session) Instance(name string) (*workload.Instance, error) {
	if inst, ok := s.instances[name]; ok {
		return inst, nil
	}
	var inst *workload.Instance
	if name == "IMDb-stable" {
		inst = workload.IMDbStable(s.Opts.wcfg())
	} else {
		var err error
		inst, err = workload.ByName(name, s.Opts.wcfg())
		if err != nil {
			return nil, err
		}
	}
	s.instances[name] = inst
	return inst, nil
}

// BaoConfig returns the session's standard Bao configuration: the full
// 49-arm family with laptop-scale training parameters.
func (s *Session) BaoConfig() core.Config {
	cfg := core.FastConfig()
	cfg.Seed = s.Opts.Seed
	return cfg
}

// Run executes (or returns the cached) run for a configuration.
func (s *Session) Run(wl string, vm cloud.VMType, grade engine.Grade, sys System) (*RunResult, error) {
	key := fmt.Sprintf("%s|%s|%s|%d", wl, vm.Name, grade, sys)
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	inst, err := s.Instance(wl)
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Workload: inst, VM: vm, Grade: grade, System: sys,
		QueryTimeout: s.Opts.QueryTimeout}
	if sys == SysBao {
		cfg.BaoCfg = s.BaoConfig()
	}
	r, err := RunWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: run %s: %w", key, err)
	}
	s.runs[key] = r
	return r, nil
}
