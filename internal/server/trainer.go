package baoserver

import (
	"time"

	"bao/internal/obs"
)

// retrainSignal is one queued retrain trigger: when it was raised and
// the identity of the decision whose observation raised it, so the
// eventual async retrain's trace and events link back to that query.
type retrainSignal struct {
	at    time.Time
	cause obs.Cause
}

// signalRetrain is Bao's retrain hook: a non-blocking send into the
// trainer's capacity-1 channel. When a retrain is already pending the
// signal coalesces into it — the pending retrain will train on a window
// that already includes the experiences behind both signals, so running
// twice would only burn GPU time (this also folds gross-misprediction
// early-retrain requests that arrive mid-fit into the next draw). A
// coalesced signal's cause is dropped with it: the surviving retrain
// stays attributed to the decision that first scheduled it.
func (s *Server) signalRetrain(cause obs.Cause) {
	select {
	case s.retrainCh <- retrainSignal{at: time.Now(), cause: cause}:
	default:
		s.o.RetrainCoalesced.Inc()
	}
}

// trainer is the single background training goroutine: it drains retrain
// signals, fits a fresh Thompson-sampling draw on a detached model
// (core.Bao.RetrainAsyncFor — no lock held during the fit, so in-flight
// selections keep predicting with the previous model), and hot-swaps the
// fitted model in, checkpointing each accepted generation. Exits when stop
// closes at shutdown, after running the signal still pending then.
func (s *Server) trainer() {
	defer close(s.trainerDone)
	for {
		select {
		case sig := <-s.retrainCh:
			s.trainOnce(sig)
		case <-s.stop:
			select {
			case sig := <-s.retrainCh:
				s.trainOnce(sig)
			default:
			}
			return
		}
	}
}

// trainOnce runs one retrain cycle. RetrainAsyncFor recovers panics
// inside the fit itself; this recover is the outer belt for everything
// else in the cycle (checkpointing, bookkeeping) — a panicking trainer
// goroutine would otherwise take the whole server down, the exact
// opposite of the guard's degradation ladder.
func (s *Server) trainOnce(sig retrainSignal) {
	defer func() {
		if r := recover(); r != nil {
			s.o.TrainerPanics.Inc()
			s.bao.Breaker().ModelFailure("trainer-panic")
		}
	}()
	if s.bao.RetrainAsyncFor(sig.cause) {
		s.o.TrainerLag.Set(time.Since(sig.at).Seconds())
		s.saveCheckpoint(sig.cause)
	}
}
