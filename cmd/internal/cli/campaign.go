package cli

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"

	"odbscale/internal/campaign"
)

// Campaign is a campaign command's run flags as CampaignFlags gives
// them.
type Campaign struct {
	Checkpoint string
	Resume     bool
	Events     string
	Quiet      bool
}

// CampaignFlags registers -checkpoint -resume -events -quiet on fs.
func CampaignFlags(fs *flag.FlagSet) *Campaign {
	c := new(Campaign)
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "checkpoint file: completed points persist here after every run")
	fs.BoolVar(&c.Resume, "resume", false, "resume from -checkpoint, re-executing only incomplete points")
	fs.StringVar(&c.Events, "events", "", "append a JSON campaign event log to this file")
	fs.BoolVar(&c.Quiet, "quiet", false, "suppress the stderr progress line")
	return c
}

// Run applies the flags to spec — checkpoint and resume, a live
// progress line on stderr unless -quiet, the -events log — and runs the
// campaign. Ctrl-C cancels it cleanly: in-flight runs stop at their
// next cancellation check and the checkpoint keeps completed points.
// Any failure is fatal.
func (c *Campaign) Run(spec campaign.Spec) *campaign.Result {
	if c.Resume && c.Checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}
	spec.CheckpointPath = c.Checkpoint
	spec.Resume = c.Resume
	var observers []campaign.Observer
	if !c.Quiet {
		observers = append(observers, campaign.NewProgress(os.Stderr, len(spec.Warehouses)*len(spec.Processors)))
	}
	if c.Events != "" {
		f, err := os.OpenFile(c.Events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		observers = append(observers, campaign.NewEventLog(f))
	}
	spec.Observer = campaign.Observers(observers...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := campaign.Run(ctx, spec)
	if err != nil {
		if c.Checkpoint != "" {
			log.Printf("campaign stopped; completed points are in %s (rerun with -resume)", c.Checkpoint)
		}
		log.Fatal(err)
	}
	return res
}
