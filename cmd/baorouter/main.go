// Command baorouter runs the fleet front door for sharded multi-tenant
// Bao serving: it consistent-hashes tenants (the X-Bao-Tenant header or
// a "tenant" JSON body field) onto shards and reverse-proxies /v1/*
// traffic to the owner, failing over — and rehashing the dead shard's
// tenants onto survivors — when a shard stops answering. Because every
// tenant's durable state (experience log + model checkpoints) lives in
// its own namespace, reassignment needs no data movement: the new owner
// replays the tenant's log and restores its newest checkpoint on first
// touch.
//
// Two modes:
//
//	baorouter -shards a=http://h1:2332,b=http://h2:2332   front external shards
//	baorouter -local 2 -tenant-dir /var/bao/tenants       self-contained demo
//	                                                      fleet: N in-process
//	                                                      shards over the Micro
//	                                                      workload
//
// Endpoints:
//
//	/v1/*       tenant-routed proxy (responses carry X-Bao-Shard and
//	            X-Bao-Request-Id)
//	/v1/health  router readiness (ready while ≥1 shard healthy)
//	/v1/fleet   GET fleet membership and health
//	/metrics    router metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bao"
	"bao/cmd/internal/cli"
	baorouter "bao/internal/router"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:2331", "address to serve the router on")
	shardsFlag := flag.String("shards", "", "comma-separated name=url shard list (external mode)")
	local := flag.Int("local", 0, "run this many in-process shards instead of external ones (demo mode)")
	tenantDir := flag.String("tenant-dir", "", "per-tenant namespace root for -local shards (default: a temp dir)")
	defaultTenant := flag.String("default-tenant", "", "tenant assumed when a request names none (\"\" rejects with 400)")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "shard readiness poll period (0 = off; failover still works inline)")
	maxResident := flag.Int("max-resident", 8, "per-shard resident-tenant count bound")
	maxResidentBytes := flag.Int64("max-resident-bytes", 256<<20, "per-shard resident model byte bound")
	explogSegBytes := cli.ExplogSegmentBytes() // per tenant; -local mode
	cli.Parse()

	var infos []baorouter.ShardInfo
	var localShards []*baoserver.Shard
	switch {
	case *local > 0:
		dir := *tenantDir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "bao-fleet-*"); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("baorouter: tenant namespaces in %s\n", dir)
		}
		for i := 0; i < *local; i++ {
			name := fmt.Sprintf("shard-%d", i)
			shard, err := bao.ServeShard(bao.ShardConfig{
				Name: name,
				Tenants: bao.TenantOptions{
					Dir:              dir, // shared: any shard can rebuild any tenant
					NewBao:           microTenant,
					Server:           bao.ServerConfig{SegmentBytes: *explogSegBytes},
					MaxResident:      *maxResident,
					MaxResidentBytes: *maxResidentBytes,
				},
				DefaultTenant: *defaultTenant,
			}, "127.0.0.1:0")
			if err != nil {
				cli.Fatal(err)
			}
			localShards = append(localShards, shard)
			infos = append(infos, baorouter.ShardInfo{Name: name, URL: "http://" + shard.Addr()})
			fmt.Printf("baorouter: %s on http://%s\n", name, shard.Addr())
		}
	case *shardsFlag != "":
		for _, part := range strings.Split(*shardsFlag, ",") {
			name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || name == "" || url == "" {
				cli.Fatal(fmt.Errorf("bad -shards entry %q (want name=url)", part))
			}
			infos = append(infos, baorouter.ShardInfo{Name: name, URL: url})
		}
	default:
		cli.Fatal(fmt.Errorf("need -shards name=url,... or -local N"))
	}

	rt, err := bao.ServeRouter(bao.RouterConfig{
		Shards:         infos,
		DefaultTenant:  *defaultTenant,
		HealthInterval: *healthEvery,
	}, *listen)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("baorouter: routing %d shards on http://%s\n", len(infos), rt.Addr())
	fmt.Printf("  try: curl -s -X POST http://%s/v1/query -H 'X-Bao-Tenant: acme' -d '{\"sql\": \"SELECT COUNT(*) FROM orders o, users u WHERE o.user_id = u.id\"}'\n", rt.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nbaorouter: shutting down...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.Shutdown(ctx) //nolint:errcheck // exiting anyway
	for _, s := range localShards {
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "baorouter:", err)
		}
	}
	fmt.Println("baorouter: bye")
}

// microTenant is the -local mode tenant factory: every tenant gets its
// own engine loaded with the Micro workload (tiny, millisecond setup) and
// a fast Bao. Real deployments implement TenantOptions.NewBao against
// their own per-tenant engines.
func microTenant(tenant string) (*bao.Optimizer, error) {
	inst := workload.Micro(workload.Config{Scale: 1, Queries: 1, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 256)
	if err := inst.Setup(eng); err != nil {
		return nil, err
	}
	cfg := bao.FastConfig()
	cfg.PlanCache = true
	return bao.New(eng, cfg), nil
}
