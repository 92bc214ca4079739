// Service sweep: run the study service in-process, fan a scenario grid
// through its streaming /v1/sweep endpoint, and watch NDJSON rows arrive
// as each cell completes — the trafficked-service view of the paper's
// evaluation. The same requests work against a standalone daemon:
//
//	go run ./cmd/earlybirdd &
//	curl -sN localhost:8080/v1/sweep -d '{"apps":["minife","miniqmc"],"alphas":[0.05,0.01]}'
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"earlybird"
)

func main() {
	// Serve on a loopback port. earlybird.Serve(ctx, addr, opts) is the
	// blocking form for a fixed address; here the example owns its port.
	srv := earlybird.NewServer(earlybird.ServeOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// A 3 apps x 2 alphas grid at the quick geometry: six cells and three
	// fills — the two alphas of an app read one fill, folded straight
	// from it, so the engine generates no dataset for it.
	sweep := map[string]any{
		"apps":       []string{"minife", "minimd", "miniqmc"},
		"geometries": []earlybird.Geometry{earlybird.QuickGeometry()},
		"alphas":     []float64{0.05, 0.01},
	}
	body, _ := json.Marshal(sweep)
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()

	fmt.Printf("sweep of %s cells:\n", resp.Header.Get("X-Sweep-Cells"))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row struct {
			Index   int     `json:"index"`
			App     string  `json:"app"`
			Alpha   float64 `json:"alpha"`
			Metrics struct {
				MeanMedianSec float64 `json:"mean_median_sec"`
			} `json:"metrics"`
			Recommendation string `json:"recommendation"`
			Err            string `json:"error,omitempty"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			log.Fatal(err)
		}
		if row.Err != "" {
			log.Fatalf("cell %d: %s", row.Index, row.Err)
		}
		fmt.Printf("  cell %d %-8s alpha=%.2f median %6.2f ms -> %s\n",
			row.Index, row.App, row.Alpha, 1e3*row.Metrics.MeanMedianSec, row.Recommendation)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// The service's own view of the traffic.
	stats, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer stats.Body.Close()
	var snapshot struct {
		Engine struct {
			Executions int64 `json:"dataset_executions"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&snapshot); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine: %d dataset generations for 6 cells\n", snapshot.Engine.Executions)

	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatal(err)
	}
}
