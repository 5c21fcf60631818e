package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// samples is one scrape of the Prometheus text exposition: series (metric
// name plus its label set, exactly as exposed) → value.
type samples map[string]float64

// scrape reads every series of a registry the way a Prometheus server
// would: through the text format, not through the Go handles.
func scrape(reg *obs.Registry) (samples, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	out := make(samples)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("scrape: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return out, nil
}

// scrapeAll scrapes several registries; the result is aligned with regs.
func scrapeAll(regs []*obs.Registry) ([]samples, error) {
	out := make([]samples, len(regs))
	for i, reg := range regs {
		s, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta returns after − before for one series; a series absent from a
// scrape counts as 0 there.
func delta(before, after samples, series string) float64 {
	return after[series] - before[series]
}

// httpOK is the request counter series of one route's successful answers.
func httpOK(route string, code int) string {
	return fmt.Sprintf(`magic_http_requests_total{endpoint=%q,method="POST",code="%d"}`, route, code)
}

// histMean returns the mean of the observations a histogram took between
// two scrapes, and how many there were. labels is the exposed label set,
// braces included, or "" for an unlabelled histogram.
func histMean(before, after samples, name, labels string) (mean float64, count float64) {
	count = delta(before, after, name+"_count"+labels)
	if count == 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum"+labels) / count, count
}
