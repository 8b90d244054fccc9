package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// sample is one request sent during the window, kept raw: responses are
// decoded and checked only after the window closes.
type sample struct {
	t      *tmpl
	slot   int
	status int // 0 on a transport error
	ms     float64
	body   []byte
}

// newClient returns a client bound to one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

func post(client *http.Client, base string, t *tmpl, slot int) (int, []byte, error) {
	resp, err := client.Post(base+t.path, "application/json", bytes.NewReader(t.fill(slot)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// sendPrep sends each client's untimed set-up requests, clients in
// parallel, and fails on the first response that is not a clean 200.
func sendPrep(base string, in *inputs) error {
	errs := make([]error, len(in.prep))
	var wg sync.WaitGroup
	for c, reqs := range in.prep {
		wg.Add(1)
		go func(c int, reqs []*tmpl) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for _, t := range reqs {
				status, body, err := post(client, base, t, 0)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, body)
				}
				if err == nil && bytes.Contains(body, []byte(`"error_kind"`)) {
					err = fmt.Errorf("per-file error: %.200s", body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("set-up request %s: %w", t.path, err)
					return
				}
			}
		}(c, reqs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs the closed loop: each client sends its next request as soon
// as it has read the previous response body, until the window ends or
// maxReqs requests have been sent in total (0: no cap). next[c] is the
// stream index of client c's next request; drive advances it. It returns
// the samples and the time from the start to the last completion.
func drive(base string, in *inputs, next []int, window time.Duration, maxReqs int) ([]sample, time.Duration) {
	perClient := make([][]sample, in.clients)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < in.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for sent := 0; time.Now().Before(deadline); sent++ {
				if maxReqs > 0 && sent*in.clients+c >= maxReqs {
					break
				}
				t, slot := in.req(c, next[c])
				next[c]++
				t0 := time.Now()
				status, body, err := post(client, base, t, slot)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				if err != nil {
					status, body = 0, []byte(err.Error())
				}
				perClient[c] = append(perClient[c], sample{t: t, slot: slot, status: status, ms: ms, body: body})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, elapsed
}

// wireFinding is the part of a response finding the oracle reads.
type wireFinding struct {
	Kind string `json:"kind"`
	File string `json:"file"`
}

type checkResponse struct {
	Findings []wireFinding `json:"findings"`
	Results  map[string]*struct {
		Findings []wireFinding `json:"findings"`
		Error    string        `json:"error"`
	} `json:"results"`
}

// verdicts counts failed requests (non-2xx, transport errors, per-file
// batch errors) and wrong verdicts: (response, file) pairs whose
// findings disagree with the generator's label. firstProblem describes
// the first of either, for the log.
func verdicts(samples []sample) (failed, wrong int, firstProblem string) {
	note := func(format string, args ...any) {
		if firstProblem == "" {
			firstProblem = fmt.Sprintf(format, args...)
		}
	}
	for _, s := range samples {
		if s.status != http.StatusOK {
			failed++
			note("%s: status %d: %.300s", s.t.path, s.status, s.body)
			continue
		}
		var resp checkResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			failed++
			note("%s: undecodable response: %v", s.t.path, err)
			continue
		}
		kinds := map[string][]string{}
		if resp.Results != nil {
			fileErr := false
			for name, e := range resp.Results {
				if e.Error != "" {
					fileErr = true
					note("%s: file %s failed: %s", s.t.path, name, e.Error)
				}
				for _, f := range e.Findings {
					kinds[name] = append(kinds[name], f.Kind)
				}
			}
			if fileErr {
				failed++
				continue
			}
		}
		for _, f := range resp.Findings {
			kinds[f.File] = append(kinds[f.File], f.Kind)
		}
		for name, l := range s.t.filledLabels(s.slot) {
			if resp.Results != nil && resp.Results[name] == nil {
				wrong++
				note("%s: no result for %s", s.t.path, name)
				continue
			}
			if l.wrong(kinds[name]) {
				wrong++
				note("%s: %s labelled %+v reported %v", s.t.path, name, l, kinds[name])
			}
		}
	}
	return failed, wrong, firstProblem
}
