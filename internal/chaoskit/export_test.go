package chaoskit

// TamperFirstResponse flips one byte of the first response recorded for
// batch b, so a test can watch the divergence checker fail.
func (c *Cluster) TamperFirstResponse(b int) { c.first[b][0] ^= 0xff }

// LinkKey is the key the link fault schedule files request id under on
// the link into replica i: the replica's name and the ID, no port.
func (c *Cluster) LinkKey(i int, id string) string { return c.Nodes[i].Name + "|" + id }
