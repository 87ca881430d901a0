package mission

// BuildFresh is Build off the process-wide artifact pool: every artifact is
// constructed from scratch. It is the reference pooled builds are held to.
func BuildFresh(cfg StackConfig) (*Stack, error) { return build(cfg, false) }
