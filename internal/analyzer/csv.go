package analyzer

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/trace"
)

// CSV output mirroring the paper's artifact A2, which "generates a folder
// for each application in the analysis, and, for each application, it
// generates [a folder per] number of bins used"; the plot scripts then join
// the per-run statistics. WriteCSV emits one run's statistics; WriteTree
// lays the runs out in the artifact's directory structure.

// csvHeader lists the emitted columns.
var csvHeader = []string{
	"app", "procs", "bins",
	"p2p_calls", "collective_calls", "onesided_calls", "progress_calls",
	"avg_queue_depth", "max_queue_depth",
	"avg_post_depth", "max_post_depth",
	"posted_avg", "posted_max", "empty_bin_pct",
	"tags_used", "unique_keys", "wildcard_recvs",
	"matched", "unexpected",
}

// WriteCSV writes one report as a two-line CSV (header + values).
func WriteCSV(w io.Writer, rep *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := []string{
		rep.App,
		strconv.Itoa(rep.Procs),
		strconv.Itoa(rep.Bins),
		strconv.Itoa(rep.Mix.P2P),
		strconv.Itoa(rep.Mix.Collective),
		strconv.Itoa(rep.Mix.OneSided),
		strconv.Itoa(rep.Mix.Progress),
		fmt.Sprintf("%.6f", rep.AvgDepth()),
		strconv.FormatUint(rep.MaxDepth(), 10),
		fmt.Sprintf("%.6f", rep.Depth.AvgPostDepth()),
		strconv.FormatUint(rep.Depth.PostMaxDepth, 10),
		fmt.Sprintf("%.6f", rep.PostedAvg),
		strconv.Itoa(rep.PostedMax),
		fmt.Sprintf("%.3f", rep.EmptyBinPct),
		strconv.Itoa(rep.TagsUsed),
		strconv.Itoa(rep.UniqueKeys),
		strconv.Itoa(rep.WildcardRecvs),
		strconv.FormatUint(rep.Matched, 10),
		strconv.FormatUint(rep.Unexpected, 10),
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteTree writes reports under root in the artifact layout:
// root/<app>/<bins>/stats.csv.
func WriteTree(root string, reports []*Report) error {
	for _, rep := range reports {
		dir := filepath.Join(root, trace.SanitizeName(rep.App), strconv.Itoa(rep.Bins))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, "stats.csv"))
		if err != nil {
			return err
		}
		if err := WriteCSV(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
