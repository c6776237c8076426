package serve

// FlightWaiters reports how many requests are waiting on the router's
// in-flight proxy cells, summed over keys. With one key in flight it is
// that cell's waiter count, leader included; tests use it to hold a
// backend until every concurrent request has joined the flight.
func (rt *Router) FlightWaiters() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, c := range rt.flight {
		n += c.waiters
	}
	return n
}
