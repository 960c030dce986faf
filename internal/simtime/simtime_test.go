package simtime

import (
	"testing"
	"time"
)

func TestDate(t *testing.T) {
	got := Date(2014, time.April, 7, 0, 0)
	want := Time(time.Date(2014, 4, 7, 0, 0, 0, 0, time.UTC).Unix())
	if got != want {
		t.Errorf("Date = %d, want %d", got, want)
	}
}

func TestArithmetic(t *testing.T) {
	t0 := Date(2014, time.April, 15, 11, 0)
	t1 := t0.Add(Hours(50))
	if t1.Sub(t0) != 50*Hour {
		t.Errorf("Sub = %d", t1.Sub(t0))
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Error("ordering broken")
	}
}

func TestBuckets(t *testing.T) {
	t0 := Time(0)
	if t0.TenMinuteBucket() != 0 || Time(599).TenMinuteBucket() != 0 || Time(600).TenMinuteBucket() != 1 {
		t.Error("10-minute bucketing wrong at boundary")
	}
}

func TestHourOfDay(t *testing.T) {
	noon := Date(2014, time.April, 15, 12, 30)
	if h := noon.HourOfDay(); h != 12.5 {
		t.Errorf("HourOfDay = %v, want 12.5", h)
	}
	if h := Time(-3600).HourOfDay(); h != 23 {
		t.Errorf("HourOfDay(-1h) = %v, want 23", h)
	}
}

func TestString(t *testing.T) {
	got := Date(2014, time.April, 7, 13, 45).String()
	if got != "2014-04-07T13:45:00Z" {
		t.Errorf("String = %q", got)
	}
}

func TestDaysHours(t *testing.T) {
	if Days(3) != 3*Day || Hours(5) != 5*Hour {
		t.Error("Days/Hours helpers wrong")
	}
}
