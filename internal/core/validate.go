package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/rep"
)

// engineConfig is the slice of the configuration the engine runs on:
// sizing, the clock, and the stale-retention rule the resilience
// options imply.
func (cfg Config) engineConfig() engine.Config {
	return engine.Config{
		MaxEntries:      cfg.MaxEntries,
		MaxBytes:        cfg.MaxBytes,
		Shards:          cfg.Shards,
		Clock:           cfg.Clock,
		RetainValidated: cfg.Revalidate,
		StaleWindow:     cfg.StaleIfError,
	}
}

// Validate checks the configuration without building a cache,
// returning the first problem found as a descriptive error. New calls
// it, so a Config assembled from flags (cmd/wsclient) fails at startup
// with the message a programmatic misuse would get. Sizing and the
// stale window are the engine's to check.
func (cfg Config) Validate() error {
	if cfg.KeyGen == nil {
		return fmt.Errorf("core: Config.KeyGen is required")
	}
	if cfg.Store == nil && cfg.Rep == nil {
		return fmt.Errorf("core: Config.Store is required (or set Config.Rep for the adaptive default)")
	}
	if err := cfg.engineConfig().Validate(); err != nil {
		return err
	}
	if cfg.DefaultTTL < 0 {
		return fmt.Errorf("core: Config.DefaultTTL is %v; negative lifetimes are not valid (0 means never expire)", cfg.DefaultTTL)
	}
	for i, t := range cfg.Tiers {
		if t == nil {
			return fmt.Errorf("core: Config.Tiers[%d] is nil", i)
		}
	}
	if len(cfg.Tiers) > 0 {
		// A tier stack ships entries across process boundaries, which
		// needs a selector of wire-capable representations: the Store
		// when it is one, else one built over the registry.
		_, storeSelects := cfg.Store.(*rep.Selector)
		if cfg.Rep == nil && !storeSelects {
			return fmt.Errorf("core: Config.Tiers requires Config.Rep (or a *rep.Selector as Store) to encode entries for the wire")
		}
	}
	return nil
}
