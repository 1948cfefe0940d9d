package model

import "bao/internal/nn"

// Params hands the external tests the trained network's parameters, so
// they can poison a weight the way an exploded fit would.
func (m *TCNNModel) Params() []*nn.Param { return m.net.Params() }
