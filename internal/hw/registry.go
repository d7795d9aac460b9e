package hw

import "bfpp/internal/registry"

// Registry resolves the cluster spellings every consumer accepts (the
// commands' -cluster flags, the service requests' "cluster" field): fixed
// names ("paper", "ethernet") first, then patterns (a GPU count for
// LargeCluster) in registration order.
var Registry = registry.New[Cluster]("cluster")

func init() {
	// The paper's testbeds register like any extension would; the bare
	// GPU-count spelling of the trade-off extrapolations is a pattern.
	Registry.Register("paper", PaperCluster, "infiniband", "ib")
	Registry.Register("ethernet", PaperClusterEthernet, "eth")
	Registry.RegisterPattern("<gpu-count>", func(arg string) (Cluster, bool, error) {
		n := 0
		for _, r := range arg {
			if r < '0' || r > '9' {
				return Cluster{}, false, nil
			}
			n = n*10 + int(r-'0')
			if n > 1<<24 { // an absurd count is a typo, not a cluster
				return Cluster{}, false, nil
			}
		}
		if len(arg) == 0 || n <= 0 {
			return Cluster{}, false, nil
		}
		return LargeCluster(n), true, nil
	})
}
