package trace

import "repro/pageguard"

// NewMachine boots a machine configured by f's directives plus extra
// options. Building the replay machine through this is what makes a
// directive-carrying trace reproduce its producing run bit-for-bit.
// Malformed directive specs surface as an error from the machine's next
// NewProcess call (and therefore from Replay).
func NewMachine(f *File, extra ...pageguard.Option) *pageguard.Machine {
	var opts []pageguard.Option
	if f.FaultSpec != "" {
		opts = append(opts, pageguard.WithFaultSchedule(f.FaultSpec))
	}
	if f.PolicySpec != "" {
		opts = append(opts, pageguard.WithPolicySpec(f.PolicySpec))
	}
	if f.VABudgetPages != 0 {
		opts = append(opts, pageguard.WithVABudget(f.VABudgetPages))
	}
	if f.Guards {
		opts = append(opts, pageguard.WithOverflowGuards())
	}
	if f.SamplingSpec != "" {
		opts = append(opts, pageguard.WithSampling(f.SamplingSpec))
	}
	return pageguard.NewMachine(append(opts, extra...)...)
}
