package fixture

import "strings"

// strings.Split shares its name with Comm.Split but splits a string, not
// a communicator: neither function below runs a collective. Nor does it
// call splitter.Split, the package's one method of that name, which does.

type splitter struct{ c *Comm }

func (s splitter) Split(line string) []string {
	s.c.Barrier()
	return nil
}

func headerFields(header string) []string {
	return strings.Split(header, ",")
}

// Only rank 0 parses the header, through a helper.
func rootParsesHeader(c *Comm, header string) {
	if c.Rank() == 0 {
		_ = headerFields(header)
	}
}

// The trip count is the rank, and the body splits a string.
func splitPerRank(c *Comm, line string) {
	for i := 0; i < c.Rank(); i++ {
		_ = strings.Split(line, ";")
	}
}
