package resilience

// DetectDelay is the fast-reroute activation latency, seconds, for the
// external tests that reason about when a schedule's last patch lands.
const DetectDelay = detectDelay
