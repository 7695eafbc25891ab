package main

import "fmt"

// checkBottleneck is packet conservation at the bottleneck: every
// packet offered to the queue was sent, dropped, or is still queued,
// except the one the link may be serializing (dequeued, not yet sent).
func checkBottleneck(arrivals, sent, drops uint64, queued int) error {
	accounted := sent + drops + uint64(queued)
	if arrivals != accounted && arrivals != accounted+1 {
		return fmt.Errorf("bottleneck conservation: arrivals %d != sent %d + drops %d + queued %d (+1 on the wire)",
			arrivals, sent, drops, queued)
	}
	return nil
}

// checkMiddlebox is packet conservation inside the TAQ middlebox.
func checkMiddlebox(arrivals, served, drops uint64, queued int) error {
	if arrivals != served+drops+uint64(queued) {
		return fmt.Errorf("middlebox conservation: arrivals %d != served %d + drops %d + queued %d",
			arrivals, served, drops, queued)
	}
	return nil
}
