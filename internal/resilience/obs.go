package resilience

// Metrics is the instrumentation parameter of Compute. It carries no
// metrics: no binary exports a resilience family, and every caller
// passes nil.
type Metrics struct{}
