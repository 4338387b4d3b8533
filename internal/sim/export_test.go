package sim

// ForcePool returns cfg with parallel dispatch forced onto the persistent
// worker pool for any Workers > 1, ignoring the node-count gate and the
// single-P check. Tests use it to run the pool's parallel round core at n
// small enough for a quick test, on any host.
func ForcePool(cfg Config) Config {
	cfg.forcePool = true
	return cfg
}
